package service

// Chaos is the worker-side fault-injection harness — the generalization
// of the server's -crash-after-checkpoints flag to the cluster protocol.
// Every injection models a real fleet failure:
//
//	kill-on-lease=N      the worker dies mid-unit while holding its Nth
//	                     lease (after uploading one snapshot), exercising
//	                     lease expiry and checkpoint-resumed re-issue
//	drop-heartbeats      the worker stops heartbeating after its first
//	                     lease but keeps computing — a network partition;
//	                     its lease expires and its late result is fenced
//	delay-results=D      every result report sleeps D first (straggler)
//	duplicate-deliver    every result is reported twice (at-least-once
//	                     delivery); the second must be an idempotent ack
//
// The chaos wall asserts that any combination of these still yields
// merged metrics byte-identical to the sequential run.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Chaos configures a worker's fault injection. The zero value injects
// nothing.
type Chaos struct {
	KillOnLease      int           // die mid-unit on the Nth lease (0 = never)
	DropHeartbeats   bool          // stop heartbeating after the first lease
	DelayResults     time.Duration // sleep before every result report
	DuplicateDeliver bool          // report every result twice
}

// ErrChaosKilled is returned by Worker.Run when kill-on-lease fires;
// cmd/pcserved maps it to a distinct exit code so harness scripts can
// tell an injected death from a real failure.
var ErrChaosKilled = errors.New("service: chaos kill-on-lease fired")

// String renders the spec in ParseChaos's grammar.
func (c Chaos) String() string {
	var parts []string
	if c.KillOnLease > 0 {
		parts = append(parts, fmt.Sprintf("kill-on-lease=%d", c.KillOnLease))
	}
	if c.DropHeartbeats {
		parts = append(parts, "drop-heartbeats")
	}
	if c.DelayResults > 0 {
		parts = append(parts, "delay-results="+c.DelayResults.String())
	}
	if c.DuplicateDeliver {
		parts = append(parts, "duplicate-deliver")
	}
	return strings.Join(parts, ",")
}

// ParseChaos parses a comma-separated injection spec, e.g.
// "kill-on-lease=2,drop-heartbeats,delay-results=200ms,duplicate-deliver".
// An empty spec is no chaos.
func ParseChaos(spec string) (Chaos, error) {
	var c Chaos
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, hasVal := strings.Cut(strings.TrimSpace(part), "=")
		switch key {
		case "kill-on-lease":
			if !hasVal {
				return Chaos{}, fmt.Errorf("service: chaos kill-on-lease needs =N")
			}
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return Chaos{}, fmt.Errorf("service: chaos kill-on-lease=%q: want a positive integer", val)
			}
			c.KillOnLease = n
		case "drop-heartbeats":
			if hasVal {
				return Chaos{}, fmt.Errorf("service: chaos drop-heartbeats takes no value")
			}
			c.DropHeartbeats = true
		case "delay-results":
			if !hasVal {
				return Chaos{}, fmt.Errorf("service: chaos delay-results needs =duration")
			}
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return Chaos{}, fmt.Errorf("service: chaos delay-results=%q: want a positive duration", val)
			}
			c.DelayResults = d
		case "duplicate-deliver":
			if hasVal {
				return Chaos{}, fmt.Errorf("service: chaos duplicate-deliver takes no value")
			}
			c.DuplicateDeliver = true
		case "":
			return Chaos{}, fmt.Errorf("service: empty chaos directive in %q", spec)
		default:
			return Chaos{}, fmt.Errorf("service: unknown chaos directive %q (have kill-on-lease=N, drop-heartbeats, delay-results=D, duplicate-deliver)", key)
		}
	}
	return c, nil
}

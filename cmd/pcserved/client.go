package main

// The pcserved client modes: submit, watch, result, list. They speak the
// server's JSON API (see EXPERIMENTS.md), so everything they do is also
// reachable with curl; the client exists for ergonomics and for the
// scripted smoke tests. All HTTP goes through service.APIClient — a
// request timeout plus retry-with-backoff on connection errors and
// 429/503 (honoring Retry-After) — and the event watcher reconnects a
// dropped stream with ?from=<last seq>, so every event is observed
// exactly once across reconnects.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"prophetcritic/internal/obs"
	"prophetcritic/internal/service"
)

// multiFlag collects a repeatable string flag in order.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// apiFlags registers the connection flags shared by every client mode
// and returns a constructor for the configured client.
func apiFlags(fs *flag.FlagSet) func() *service.APIClient {
	addr := fs.String("addr", "http://localhost:8917", "server base URL")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	retries := fs.Int("retries", 4, "HTTP retries on connection errors and 429/503 (honoring Retry-After)")
	return func() *service.APIClient {
		return service.NewAPIClient(*addr, *timeout, *retries)
	}
}

func submit(args []string) {
	fs := flag.NewFlagSet("pcserved submit", flag.ExitOnError)
	api := apiFlags(fs)
	bench := fs.String("bench", "", "comma-separated benchmarks, suites, or 'all'")
	traceFlag := fs.String("trace", "", "comma-separated trace files (relative to the server's trace dir)")
	prophetFlag := fs.String("prophet", "2Bc-gskew:8", "prophet spec: kind:KB or kind(name=value,...); see pcsim -list-kinds")
	var specsFlag multiFlag
	fs.Var(&specsFlag, "spec", "prophet spec; repeat to evaluate several specs in one pass of each workload (overrides -prophet)")
	criticFlag := fs.String("critic", "tagged gshare:8", "critic spec (same grammar as -prophet), or 'none'")
	fb := fs.Uint("fb", 1, "number of future bits")
	unfiltered := fs.Bool("unfiltered", false, "critique every branch (no tag filter)")
	warmup := fs.Int("warmup", 0, "warmup branches (0 = server default)")
	measure := fs.Int("measure", 0, "measured branches (0 = server default)")
	shards := fs.Int("shards", 0, "intra-workload parallel intervals (0 = 1)")
	warmupFrac := fs.Float64("warmup-frac", 1, "per-shard warmup replay fraction (1 = exact)")
	priority := fs.Int("priority", 0, "queue priority (higher runs sooner)")
	client := fs.String("client", "", "client name for admission control")
	watchFlag := fs.Bool("watch", false, "stream the job's events after submitting")
	fs.Parse(args)

	spec := service.JobSpec{
		Client:     *client,
		Priority:   *priority,
		Critic:     *criticFlag,
		FutureBits: *fb,
		Unfiltered: *unfiltered,
		Warmup:     *warmup,
		Measure:    *measure,
		Shards:     *shards,
	}
	if len(specsFlag) > 0 {
		spec.Specs = specsFlag
	} else {
		spec.Prophet = *prophetFlag
	}
	if *warmupFrac != 1 {
		spec.WarmupFrac = warmupFrac
	}
	if *bench != "" {
		spec.Benches = strings.Split(*bench, ",")
	}
	if *traceFlag != "" {
		spec.Traces = strings.Split(*traceFlag, ",")
	}

	c := api()
	var job service.Job
	status, err := c.PostJSON(context.Background(), "/v1/jobs", spec, &job)
	if err != nil {
		fatal(fmt.Errorf("submit rejected (status %d): %w", status, err))
	}
	fmt.Printf("submitted %s (%d workloads, state %s)\n", job.ID, len(job.Workloads), job.State)
	if *watchFlag {
		streamEvents(c, job.ID, false)
	}
}

func watch(args []string) {
	fs := flag.NewFlagSet("pcserved watch", flag.ExitOnError)
	api := apiFlags(fs)
	raw := fs.Bool("json", false, "print raw NDJSON lines instead of formatted progress")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("watch needs exactly one job id"))
	}
	streamEvents(api(), fs.Arg(0), *raw)
}

// streamEvents follows a job's NDJSON stream to its end, reconnecting a
// mid-stream drop with ?from=<last seq> so no event is missed or
// repeated. With raw, lines pass through verbatim (the scripted
// consumers' mode); otherwise each event renders as a one-line summary.
func streamEvents(c *service.APIClient, id string, raw bool) {
	ctx := context.Background()
	lastSeq := 0
	failed := false
	reconnects := 0
	for {
		path := "/v1/jobs/" + id + "/events"
		if lastSeq > 0 {
			path += fmt.Sprintf("?from=%d", lastSeq)
		}
		resp, err := c.Stream(ctx, path)
		if err != nil {
			fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			defer resp.Body.Close()
			fatal(fmt.Errorf("events rejected: %s", resp.Status))
		}
		terminal, err := consumeEvents(resp.Body, &lastSeq, &failed, raw)
		resp.Body.Close()
		if terminal {
			break
		}
		// The stream ended without a terminal event: server drain or a
		// dropped connection. Reconnect from the last seen sequence
		// number; give up after the retry budget.
		reconnects++
		if err == nil && reconnects > c.Retries {
			// A cleanly ended stream (server drained the log) is not an
			// error loop — stop after the budget either way.
			break
		}
		if reconnects > c.Retries {
			fatal(fmt.Errorf("event stream kept dropping (last seq %d): %v", lastSeq, err))
		}
		time.Sleep(250 * time.Millisecond)
	}
	if !raw {
		printTraceSummary(c, id)
	}
	if failed {
		os.Exit(1)
	}
}

// printTraceSummary fetches the job's span tree and renders per-stage
// timings aggregated by span name — where the job's wall clock went
// (queueing, warmup, measurement, checkpoints, unit leases). Best
// effort: a server without the trace (evicted, or an older build) just
// skips the summary.
func printTraceSummary(c *service.APIClient, id string) {
	var tr obs.Trace
	if err := c.GetJSON(context.Background(), "/v1/jobs/"+id+"/trace", &tr); err != nil {
		return
	}
	type agg struct {
		name  string
		count int
		total time.Duration
	}
	byName := map[string]*agg{}
	order := []*agg{}
	for _, sp := range tr.Spans {
		if sp.End.IsZero() {
			continue // still open (or dropped); no duration to report
		}
		a := byName[sp.Name]
		if a == nil {
			a = &agg{name: sp.Name}
			byName[sp.Name] = a
			order = append(order, a)
		}
		a.count++
		a.total += sp.End.Sub(sp.Start)
	}
	if len(order) == 0 {
		return
	}
	fmt.Println("stage timings:")
	for _, a := range order {
		fmt.Printf("  %-12s %4d span(s)  %10.1fms total\n",
			a.name, a.count, float64(a.total)/float64(time.Millisecond))
	}
}

// consumeEvents reads one stream connection, updating the cursor and
// printing events with Seq > *lastSeq exactly once. terminal reports
// whether a done/failed event ended the stream.
func consumeEvents(body interface{ Read([]byte) (int, error) }, lastSeq *int, failed *bool, raw bool) (terminal bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e service.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return false, fmt.Errorf("bad event line %q: %w", sc.Text(), err)
		}
		if e.Seq <= *lastSeq {
			continue // duplicate across a reconnect boundary
		}
		*lastSeq = e.Seq
		*failed = *failed || e.Type == "failed"
		if raw {
			fmt.Println(sc.Text())
		} else {
			printEvent(e)
		}
		if e.Type == "done" || e.Type == "failed" {
			return true, nil
		}
	}
	return false, sc.Err()
}

func printEvent(e service.Event) {
	switch e.Type {
	case "progress":
		pct := 0.0
		if e.Total > 0 {
			pct = float64(e.Done) / float64(e.Total) * 100
		}
		line := fmt.Sprintf("[%3d] progress  %-12s %9d/%d branches (%5.1f%%)", e.Seq, e.Workload, e.Done, e.Total, pct)
		if e.Row != nil {
			line += fmt.Sprintf("  misp/Ku %.4f", e.Row.MispPerKuops)
		}
		fmt.Println(line)
	case "result":
		fmt.Printf("[%3d] result    %-12s misp/Ku %.4f  misp%% %.3f  uops/flush %.0f\n",
			e.Seq, e.Row.Benchmark, e.Row.MispPerKuops, e.Row.MispRate*100, e.Row.UopsPerFlush)
	case "done":
		fmt.Printf("[%3d] done      %d workload(s)\n", e.Seq, len(e.Rows))
	case "failed":
		fmt.Printf("[%3d] failed    %s\n", e.Seq, e.Error)
	default:
		fmt.Printf("[%3d] %s\n", e.Seq, e.Type)
	}
}

// result prints a finished job's rows as NDJSON, one row per line — the
// stable, byte-comparable form the restart-resume and chaos smoke tests
// diff.
func result(args []string) {
	fs := flag.NewFlagSet("pcserved result", flag.ExitOnError)
	api := apiFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("result needs exactly one job id"))
	}
	job := getJob(api(), fs.Arg(0))
	switch job.State {
	case service.StateDone:
	case service.StateFailed:
		fatal(fmt.Errorf("job %s failed: %s", job.ID, job.Error))
	default:
		fatal(fmt.Errorf("job %s is %s, not done", job.ID, job.State))
	}
	enc := json.NewEncoder(os.Stdout)
	for _, row := range job.Rows {
		if err := enc.Encode(row); err != nil {
			fatal(err)
		}
	}
}

func list(args []string) {
	fs := flag.NewFlagSet("pcserved list", flag.ExitOnError)
	api := apiFlags(fs)
	state := fs.String("state", "", "filter by state: queued, running, done, or failed")
	limit := fs.Int("limit", 0, "page size (0 = everything in one response)")
	fs.Parse(args)
	c := api()

	fmt.Printf("%-10s %-9s %-4s %-9s %s\n", "ID", "STATE", "PRIO", "WORKLOADS", "PREDICTOR")
	after := ""
	for {
		q := url.Values{}
		if *state != "" {
			q.Set("state", *state)
		}
		if *limit > 0 {
			q.Set("limit", strconv.Itoa(*limit))
		}
		if after != "" {
			q.Set("after", after)
		}
		path := "/v1/jobs"
		if enc := q.Encode(); enc != "" {
			path += "?" + enc
		}
		var page service.JobList
		if err := c.GetJSON(context.Background(), path, &page); err != nil {
			fatal(fmt.Errorf("list rejected: %w", err))
		}
		for _, j := range page.Jobs {
			critic := j.Spec.Critic
			if critic == "" {
				critic = "none"
			}
			// Pre-normalization records may carry only the deprecated
			// single-spec aliases.
			specs := j.Spec.Specs
			if len(specs) == 0 && j.Spec.Prophet != "" {
				specs = []string{j.Spec.Prophet}
			}
			if len(specs) == 0 && j.Spec.Spec != "" {
				specs = []string{j.Spec.Spec}
			}
			fmt.Printf("%-10s %-9s %-4d %-9d %s + %s\n",
				j.ID, j.State, j.Spec.Priority, len(j.Workloads), strings.Join(specs, "; "), critic)
		}
		if page.Next == "" {
			return
		}
		after = page.Next
	}
}

// results queries the server's content-addressed result cache (GET
// /v1/results), printing one NDJSON entry per cached cell — each with
// its cell key, the job that computed it, and the row it serves.
func results(args []string) {
	fs := flag.NewFlagSet("pcserved results", flag.ExitOnError)
	api := apiFlags(fs)
	spec := fs.String("spec", "", "filter by prophet spec (canonicalized; prophet-alone specs also match their hybrid cells)")
	workload := fs.String("workload", "", "filter by workload: a benchmark name or a trace content-hash prefix")
	fs.Parse(args)

	q := url.Values{}
	if *spec != "" {
		q.Set("spec", *spec)
	}
	if *workload != "" {
		q.Set("workload", *workload)
	}
	path := "/v1/results"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var list service.ResultList
	if err := api().GetJSON(context.Background(), path, &list); err != nil {
		fatal(fmt.Errorf("results rejected: %w", err))
	}
	enc := json.NewEncoder(os.Stdout)
	for _, e := range list.Results {
		if err := enc.Encode(e); err != nil {
			fatal(err)
		}
	}
}

func getJob(c *service.APIClient, id string) service.Job {
	var j service.Job
	if err := c.GetJSON(context.Background(), "/v1/jobs/"+id, &j); err != nil {
		fatal(fmt.Errorf("job %s: %w", id, err))
	}
	return j
}

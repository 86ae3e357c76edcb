package service

// The chaos wall: a job leased to workers must produce byte-identical
// rows to the sequential simulator no matter which workers die, stall,
// partition, or double-deliver mid-job. These tests run the coordinator
// and workers in-process against an httptest server, with the lease TTL
// (and so every protocol timing derived from it) shrunk so leases
// expire and heartbeats miss within milliseconds.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"prophetcritic/internal/sim"
)

// clusterConfig shrinks the lease TTL, and with it every cluster timing,
// so fault handling is exercised in milliseconds instead of seconds.
func clusterConfig(cfg *Config) {
	cfg.CheckpointEvery = 2_000
	cfg.LeaseTTL = 300 * time.Millisecond
}

// startWorker runs one in-process worker node against ts until the test
// ends. stop cancels the worker and yields its exit error; exited fires
// when the worker dies on its own (a chaos kill) — wait on it instead of
// calling stop, so the cancellation can't race the death it expects.
func startWorker(t *testing.T, ts *httptest.Server, name string, chaos Chaos) (w *Worker, stop func() error, exited <-chan error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: ts.URL,
		Name:        name,
		Client:      NewAPIClient(ts.URL, 10*time.Second, 2),
		Chaos:       chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return w, func() error {
		cancel()
		return <-done
	}, done
}

// waitExit waits for a worker's own exit without canceling it.
func waitExit(t *testing.T, exited <-chan error) error {
	t.Helper()
	select {
	case err := <-exited:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("worker never exited on its own")
		return nil
	}
}

// waitRegistered blocks until the worker has registered (so a submit
// can't race ahead of the fleet and fall back to local execution).
func waitRegistered(t *testing.T, w *Worker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.Registered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// scrapeMetrics fetches /metricsz and returns the counters by name.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if n, err := strconv.Atoi(fields[1]); err == nil {
			out[fields[0]] = n
		}
	}
	return out
}

// Every fleet timing derives from the lease TTL: a silent worker is
// dead before its lease would expire, the re-issue backoff stays within
// [base/2, TTL] for any attempt count, the reap sweep stays within
// [10ms, 1s], an idle lease call waits at most the TTL and less than
// the API client's 30s timeout, and the default 5s TTL keeps the
// timings the fleet has always had.
func TestFleetTimings(t *testing.T) {
	for _, tc := range []struct {
		ttl  time.Duration
		want fleetTimings // zero: check the bounds only
	}{
		{ttl: 10 * time.Millisecond},
		{ttl: 50 * time.Millisecond},
		{ttl: 150 * time.Millisecond},
		{ttl: 5 * time.Second, want: fleetTimings{
			heartbeat:  time.Second,
			dead:       3 * time.Second,
			backoff:    200 * time.Millisecond,
			backoffMax: 5 * time.Second,
			reap:       625 * time.Millisecond,
			wait:       5 * time.Second,
		}},
		{ttl: time.Minute},
	} {
		ft := timings(tc.ttl)
		if ft.heartbeat <= 0 || ft.dead >= tc.ttl {
			t.Errorf("TTL %v: heartbeat %v, dead after %v; want a positive beat and death under the TTL", tc.ttl, ft.heartbeat, ft.dead)
		}
		if ft.reap < 10*time.Millisecond || ft.reap > time.Second {
			t.Errorf("TTL %v: reap %v outside [10ms, 1s]", tc.ttl, ft.reap)
		}
		if ft.wait <= 0 || ft.wait > tc.ttl || ft.wait >= 30*time.Second {
			t.Errorf("TTL %v: lease wait %v, want positive, at most the TTL and under 30s", tc.ttl, ft.wait)
		}
		co := newCoordinator(Config{LeaseTTL: tc.ttl})
		for attempts := 0; attempts <= 3*unitAttempts; attempts++ {
			for range 16 {
				if d := co.backoff(attempts); d < ft.backoff/2 || d > tc.ttl {
					t.Errorf("TTL %v: backoff after %d attempts = %v, outside [%v, %v]", tc.ttl, attempts, d, ft.backoff/2, tc.ttl)
				}
			}
		}
		if tc.want != (fleetTimings{}) && ft != tc.want {
			t.Errorf("TTL %v: timings %+v, want %+v", tc.ttl, ft, tc.want)
		}
	}
}

// A worker derives its timings from the lease TTL its coordinator
// announces, so both sides run the same timings at any TTL.
func TestWorkerAdoptsCoordinatorTimings(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), func(cfg *Config) { cfg.LeaseTTL = 150 * time.Millisecond })
	defer s.Kill()
	w, stop, _ := startWorker(t, ts, "w-timings", Chaos{})
	defer stop()
	waitRegistered(t, w)
	want := timings(s.cfg.LeaseTTL)
	if w.timing != want {
		t.Errorf("worker timings %+v, coordinator's %+v", w.timing, want)
	}
}

// A healthy one-worker cluster must produce exactly the rows of the
// direct sharded run — which the sharding tests already pin to the
// sequential simulator.
func TestClusterMatchesDirectRun(t *testing.T) {
	spec := fastSpec()
	spec.Shards = 4
	want := directRows(t, spec)
	sequential := fastSpec() // same windows, no sharding: the ground truth
	wantSeq := directRows(t, sequential)
	if !reflect.DeepEqual(want, wantSeq) {
		t.Fatalf("precondition broken: sharded reference differs from sequential")
	}

	s, ts := newTestServer(t, t.TempDir(), clusterConfig)
	defer s.Kill()
	w, stop, _ := startWorker(t, ts, "w-healthy", Chaos{})
	waitRegistered(t, w)

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("cluster rows differ from direct run:\n got %+v\nwant %+v", got.Rows, want)
	}
	if w.UnitsDone.Load() == 0 {
		t.Fatal("worker completed no units — the job ran on the local fallback path")
	}
	stop()

	m := scrapeMetrics(t, ts)
	if m["pcserved_units_leased_total"] == 0 {
		t.Fatalf("units_leased_total = 0; metrics: %v", m)
	}
	if m["pcserved_units_completed_total"] != 4 {
		t.Fatalf("units_completed_total = %d, want 4", m["pcserved_units_completed_total"])
	}
}

// The chaos wall: one worker dies mid-unit right after uploading a
// snapshot, one keeps computing after its heartbeats stop (a partition —
// its results must be fenced), one delivers every result twice after a
// delay. The job must still complete with rows byte-identical to the
// sequential run, and the recovery machinery (lease expiry, retries)
// must be visible in /metricsz.
func TestClusterChaosWall(t *testing.T) {
	spec := fastSpec()
	spec.Shards = 4
	want := directRows(t, spec)

	s, ts := newTestServer(t, t.TempDir(), clusterConfig)
	defer s.Kill()

	killer, _, killerExited := startWorker(t, ts, "w-killer", Chaos{KillOnLease: 1})
	waitRegistered(t, killer)
	dropper, _, _ := startWorker(t, ts, "w-partitioned", Chaos{DropHeartbeats: true})
	waitRegistered(t, dropper)
	healthy, _, _ := startWorker(t, ts, "w-healthy", Chaos{DelayResults: 5 * time.Millisecond, DuplicateDeliver: true})
	waitRegistered(t, healthy)

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("chaos cluster rows differ from direct run:\n got %+v\nwant %+v", got.Rows, want)
	}

	if err := waitExit(t, killerExited); err != ErrChaosKilled {
		t.Fatalf("kill-on-lease worker exited %v, want ErrChaosKilled", err)
	}

	m := scrapeMetrics(t, ts)
	for _, counter := range []string{
		"pcserved_units_leased_total",
		"pcserved_leases_expired_total",
		"pcserved_units_retried_total",
	} {
		if m[counter] == 0 {
			t.Errorf("%s = 0 after chaos run; metrics: %v", counter, m)
		}
	}
	if m["pcserved_units_completed_total"] < 4 {
		t.Errorf("units_completed_total = %d, want >= 4", m["pcserved_units_completed_total"])
	}
}

// A duplicate delivery of a completed unit must be acknowledged without
// corrupting the merge (exactly-once effect despite at-least-once
// delivery) — covered end-to-end above, pinned on the counter here.
func TestClusterDuplicateDelivery(t *testing.T) {
	spec := fastSpec()
	spec.Shards = 2
	want := directRows(t, spec)

	s, ts := newTestServer(t, t.TempDir(), clusterConfig)
	defer s.Kill()
	w, _, _ := startWorker(t, ts, "w-dup", Chaos{DuplicateDeliver: true})
	waitRegistered(t, w)

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("rows differ under duplicate delivery:\n got %+v\nwant %+v", got.Rows, want)
	}
	m := scrapeMetrics(t, ts)
	if m["pcserved_results_duplicate_total"] == 0 {
		t.Errorf("results_duplicate_total = 0, want > 0; metrics: %v", m)
	}
}

// Every server is a coordinator: with the default config, a registered
// worker is leased the job's units, and the rows equal the direct run.
func TestDefaultServerLeasesToWorker(t *testing.T) {
	spec := fastSpec()
	spec.Shards = 2
	want := directRows(t, spec)

	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()
	w, stop, _ := startWorker(t, ts, "w-default", Chaos{})
	waitRegistered(t, w)

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("rows differ from direct run:\n got %+v\nwant %+v", got.Rows, want)
	}
	stop()
	if w.UnitsDone.Load() == 0 {
		t.Error("the registered worker completed no units")
	}
	m := scrapeMetrics(t, ts)
	if m["pcserved_units_leased_total"] == 0 || m["pcserved_units_local_total"] != 0 {
		t.Errorf("leased %d, local %d units; want every unit leased",
			m["pcserved_units_leased_total"], m["pcserved_units_local_total"])
	}
}

// With no workers, every unit runs on the coordinator's own pool at
// once, to the direct run's rows: liveness never depends on the fleet,
// at the default lease TTL or a short one.
func TestDefaultServerRunsLocallyWithoutWorkers(t *testing.T) {
	spec := fastSpec()
	spec.Shards = 3
	want := directRows(t, spec)

	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{{"default", nil}, {"short-lease", clusterConfig}} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, t.TempDir(), tc.mod)
			defer s.Kill()
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := waitState(t, s, j.ID, StateDone)
			if !reflect.DeepEqual(got.Rows, want) {
				t.Fatalf("rows differ from direct run:\n got %+v\nwant %+v", got.Rows, want)
			}
			m := scrapeMetrics(t, ts)
			if m["pcserved_units_leased_total"] != 0 || m["pcserved_units_local_total"] != 3 {
				t.Errorf("leased %d, local %d units; want 0 and 3",
					m["pcserved_units_leased_total"], m["pcserved_units_local_total"])
			}
		})
	}
}

// With no live worker, the local consumer leases every pending unit of
// its pass at once, on its first lease calls, before the job loop ever
// waits on its ticker.
func TestReapFallsBackAtOnceWithNoFleet(t *testing.T) {
	co := newCoordinator(Config{}.withDefaults())
	now := time.Now()
	co.now = func() time.Time { return now }
	r := &passRun{j: &Job{ID: "j000000"}, ws: make([]sim.Window, 3),
		st: jobState{windows: make([]windowState, 3)}, wake: make(chan struct{}, 1)}
	r.st.windows[1].results = []sim.Result{{}} // done before the restart
	co.addUnits(r)
	var got []int
	for l, err := co.lease(localConsumer, r); l != nil || err != nil; l, err = co.lease(localConsumer, r) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, co.units[l.Unit].idx)
	}
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("local units leased at once = %v, want windows [0 2]", got)
	}
	if n := co.local.Load(); n != 2 {
		t.Errorf("units_local = %d, want 2", n)
	}
}

// checkLeasesReleasedByFailure checks that the worker reported every
// unit it could not run: at least one lease ended in a failure report,
// and every lease ended in a report or an expiry.
func checkLeasesReleasedByFailure(t *testing.T, s *Scheduler) {
	t.Helper()
	m := s.ClusterMetricsSnapshot()
	if m.UnitsFailed == 0 || m.UnitsFailed+m.LeasesExpired != m.UnitsLeased {
		t.Errorf("%d leases, %d failure reports, %d expiries; want every lease released by a report or an expiry, and some by a report",
			m.UnitsLeased, m.UnitsFailed, m.LeasesExpired)
	}
}

// A failure report under the current lease token releases the unit at
// once, behind its backoff gate, and spends one attempt; after the last
// attempt the local consumer takes it. Each attempt here is another
// worker's, since a worker is never leased a unit it failed. A stale
// token is fenced, and a report after the unit completed changes
// nothing.
func TestFailReleasesLeaseAtOnce(t *testing.T) {
	co, r, lease, _ := failTestCoordinator(t, 2)
	// One worker more than the attempt budget: the budget runs out while
	// a live worker has not failed the unit yet.
	wks := make([]string, unitAttempts+1)
	for i := range wks {
		wks[i] = co.register("w" + strconv.Itoa(i)).ID
	}
	l := lease(wks, wks[0])
	if err := co.fail(l.Unit, "stale", "no trace"); err != errStaleLease {
		t.Fatalf("failure under a stale token: %v, want errStaleLease", err)
	}
	first := l.Unit
	for attempt := 1; attempt <= unitAttempts; attempt++ {
		if attempt > 1 {
			l = lease(wks, wks[attempt-1])
		}
		if l.Unit != first {
			t.Fatalf("attempt %d leased %s, want %s again", attempt, l.Unit, first)
		}
		if err := co.fail(l.Unit, l.Token, "no trace"); err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		u := co.units[l.Unit]
		if attempt < unitAttempts && (u.state != uPending || !u.notBefore.After(co.now())) {
			t.Fatalf("attempt %d: unit state %d, gate %v after now; want pending behind a backoff gate", attempt, u.state, u.notBefore.After(co.now()))
		}
		if local, err := co.lease(localConsumer, r); attempt < unitAttempts && local != nil {
			t.Fatalf("attempt %d: the local consumer took %s with attempts to spare", attempt, local.Unit)
		} else if attempt == unitAttempts && (err != nil || local == nil || local.Unit != first || u.worker != localConsumer) {
			t.Fatalf("last attempt: local lease %+v (%v), unit held by %q; want the local consumer to hold %s", local, err, u.worker, first)
		}
	}
	if got := co.Metrics(); got.UnitsFailed != unitAttempts || got.LeasesExpired != 0 || got.UnitsLocal != 1 {
		t.Errorf("metrics %+v: want %d failed, 0 expired, 1 local", got, unitAttempts)
	}

	done := lease(wks, wks[0]) // the other window
	if err := co.complete(done.Unit, done.Token, []sim.Result{}); err != nil {
		t.Fatal(err)
	}
	if err := co.fail(done.Unit, done.Token, "late"); err != nil || co.units[done.Unit].state != uDone {
		t.Errorf("failure after completion: %v, state %d; want an ack and the unit still done", err, co.units[done.Unit].state)
	}
}

// A worker that failed a unit is not leased it again, and once every
// live worker has failed it the local consumer takes it at once, with
// attempts to spare.
func TestFailedUnitSkipsItsWorkers(t *testing.T) {
	co, r, lease, _ := failTestCoordinator(t, 1)
	wks := []string{co.register("a").ID, co.register("b").ID}
	l := lease(wks, wks[0])
	if err := co.fail(l.Unit, l.Token, "no trace"); err != nil {
		t.Fatal(err)
	}
	if got, err := co.lease(wks[0], nil); err != nil || got != nil {
		t.Fatalf("the failing worker was leased %+v (%v) again", got, err)
	}
	if got, _ := co.lease(localConsumer, r); got != nil {
		t.Fatalf("the local consumer took %s while worker b had not failed it", got.Unit)
	}
	l = lease(wks, wks[1])
	if err := co.fail(l.Unit, l.Token, "no trace"); err != nil {
		t.Fatal(err)
	}
	u := co.units[l.Unit]
	if u.state != uPending || u.attempts != 2 {
		t.Errorf("failed by both live workers: unit state %d after %d attempts, want pending after 2", u.state, u.attempts)
	}
	if got, err := co.lease(localConsumer, r); err != nil || got == nil || got.Unit != l.Unit {
		t.Errorf("failed by both live workers: local lease %+v (%v), want %s at once", got, err, l.Unit)
	}
	if got := co.Metrics(); got.UnitsLeased != 2 || got.UnitsLocal != 1 {
		t.Errorf("metrics %+v: want 2 leased, 1 local", got)
	}
}

// The local consumer's eligibility rule, on a fake clock. While a live
// worker has not failed a unit and attempts remain, the local consumer
// gets nothing (the chaos wall depends on it). With no live worker,
// with every live worker having failed the unit, or with its attempts
// spent, the local consumer gets it at once (past any backoff gate), no
// worker is leased it afterwards, and reap never expires the local
// lease, however far the clock moves.
func TestLocalConsumerEligibility(t *testing.T) {
	type leaseFunc = func(wks []string, wk string) *UnitLease
	for _, tc := range []struct {
		name  string
		setup func(co *coordinator, lease leaseFunc, advance func(time.Duration)) (live []string)
		local bool
	}{
		{"worker-live", func(co *coordinator, _ leaseFunc, _ func(time.Duration)) []string {
			return []string{co.register("a").ID}
		}, false},
		{"worker-failed-it-another-did-not", func(co *coordinator, lease leaseFunc, _ func(time.Duration)) []string {
			wks := []string{co.register("a").ID, co.register("b").ID}
			l := lease(wks, wks[0])
			co.fail(l.Unit, l.Token, "no trace")
			return wks
		}, false},
		{"no-worker", func(*coordinator, leaseFunc, func(time.Duration)) []string {
			return nil
		}, true},
		{"worker-died-holding-it", func(co *coordinator, lease leaseFunc, advance func(time.Duration)) []string {
			wks := []string{co.register("a").ID}
			lease(wks, wks[0])
			advance(co.cfg.LeaseTTL) // no heartbeat: the worker is dead, its lease expires
			return nil
		}, true},
		{"all-live-workers-failed-it", func(co *coordinator, lease leaseFunc, _ func(time.Duration)) []string {
			wks := []string{co.register("a").ID, co.register("b").ID}
			for _, wk := range wks {
				l := lease(wks, wk)
				co.fail(l.Unit, l.Token, "no trace")
			}
			return wks
		}, true},
		{"attempts-spent", func(co *coordinator, lease leaseFunc, advance func(time.Duration)) []string {
			wks := []string{co.register("a").ID}
			for range unitAttempts {
				lease(wks, wks[0])
				advance(co.cfg.LeaseTTL + time.Second) // the lease expires ...
				co.heartbeat(wks[0], nil)              // ... while its worker lives on
				co.reap()
			}
			return wks
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, r, lease, advance := failTestCoordinator(t, 1)
			live := tc.setup(co, lease, advance)
			for _, id := range live {
				co.heartbeat(id, nil)
			}
			got, err := co.lease(localConsumer, r)
			if err != nil || (got != nil) != tc.local {
				t.Fatalf("local lease = %+v (%v), want a unit: %v", got, err, tc.local)
			}
			if !tc.local {
				advance(time.Hour) // past the backoff gate
				co.heartbeat(live[len(live)-1], nil)
				if l, _ := co.lease(live[len(live)-1], nil); l == nil {
					t.Error("the live worker that has not failed the unit was not leased it")
				}
				return
			}
			if n := co.local.Load(); n != 1 {
				t.Errorf("units_local = %d, want 1", n)
			}
			fresh := co.register("fresh").ID
			for range 3 {
				advance(time.Hour)
				co.heartbeat(fresh, nil)
				if l, _ := co.lease(fresh, nil); l != nil {
					t.Fatalf("a worker was leased %s after the local consumer took it", l.Unit)
				}
			}
			if u := co.units[got.Unit]; u.state != uLeased || u.worker != localConsumer || u.token != got.Token {
				t.Errorf("after the clock moved on: unit state %d held by %q, want still leased locally", u.state, u.worker)
			}
			if m := co.Metrics(); m.LeasesExpired > unitAttempts {
				t.Errorf("%d leases expired, want the local one never", m.LeasesExpired)
			}
		})
	}
}

// An idle lease call long-polls: at a 1 min TTL, a worker's call blocked
// on an empty queue returns the unit as soon as addUnits registers it,
// long before its wait bound; a call whose context ends, or whose
// scheduler stops, returns empty at once.
func TestLeaseWaitWakesOnAddUnits(t *testing.T) {
	co := newCoordinator(Config{LeaseTTL: time.Minute}.withDefaults())
	done := make(chan struct{})
	co.done = done
	wk := co.register("a").ID
	type result struct {
		l   *UnitLease
		err error
	}
	call := func(ctx context.Context) <-chan result {
		out := make(chan result, 1)
		go func() {
			l, err := co.leaseWait(ctx, wk)
			out <- result{l, err}
		}()
		return out
	}

	got := call(context.Background())
	select {
	case res := <-got:
		t.Fatalf("lease call on an empty queue returned %+v at once", res)
	case <-time.After(20 * time.Millisecond):
	}
	start := time.Now()
	r := &passRun{j: &Job{ID: "j000000"}, ws: make([]sim.Window, 1),
		st: jobState{windows: make([]windowState, 1)}, wake: make(chan struct{}, 1)}
	co.addUnits(r)
	select {
	case res := <-got:
		if res.err != nil || res.l == nil || res.l.Unit != unitID("j000000", 0, 0) {
			t.Fatalf("woken lease call = %+v, %v; want the added unit", res.l, res.err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("woken lease call took %v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("lease call still blocked after addUnits (wait bound %v)", timings(co.cfg.LeaseTTL).wait)
	}

	for name, end := range map[string]func(cancel func()){
		"context":   func(cancel func()) { cancel() },
		"scheduler": func(func()) { close(done) },
	} {
		ctx, cancel := context.WithCancel(context.Background())
		got := call(ctx)
		end(cancel)
		select {
		case res := <-got:
			if res.l != nil || res.err != nil {
				t.Errorf("%s ended: lease call = %+v, %v; want empty", name, res.l, res.err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s ended: lease call still blocked", name)
		}
		cancel()
	}
}

// Progress from a window a worker runs counts its uploaded partials:
// with one worker, every progress event's Done rises strictly, and the
// last progress row carries measured branches.
func TestWorkerProgressCountsPartials(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), clusterConfig)
	defer s.Kill()
	w, stop, _ := startWorker(t, ts, "w-progress", Chaos{})
	defer stop()
	waitRegistered(t, w)

	j, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	if w.UnitsDone.Load() != 1 {
		t.Fatalf("the worker completed %d units, want the job's one", w.UnitsDone.Load())
	}
	log, _ := s.Events(j.ID)
	events, _ := log.Snapshot(0)
	var done []int
	var last *ResultRow
	for _, e := range events {
		if e.Type == "progress" {
			done = append(done, e.Done)
			last = e.Row
		}
	}
	if len(done) < 2 {
		t.Fatalf("progress Done %v, want several events", done)
	}
	for i := range done {
		if done[i] <= 0 || (i > 0 && done[i] <= done[i-1]) {
			t.Fatalf("progress Done %v, want a strictly rising positive count", done)
		}
	}
	if last == nil || last.Branches == 0 {
		t.Errorf("last progress row %+v, want measured branches", last)
	}
}

// failTestCoordinator returns a coordinator on a fake clock holding a
// pass r of n windows, a lease helper, and a clock advance. The helper
// moves the clock an hour on (past any backoff gate), heartbeats every
// worker in wks, and leases a unit to wk, failing the test if there is
// none.
func failTestCoordinator(t *testing.T, n int) (*coordinator, *passRun, func(wks []string, wk string) *UnitLease, func(time.Duration)) {
	co := newCoordinator(Config{}.withDefaults())
	now := time.Now()
	co.now = func() time.Time { return now }
	r := &passRun{j: &Job{ID: "j000000"}, ws: make([]sim.Window, n),
		st: jobState{windows: make([]windowState, n)}, wake: make(chan struct{}, 1)}
	co.addUnits(r)
	advance := func(d time.Duration) { now = now.Add(d) }
	return co, r, func(wks []string, wk string) *UnitLease {
		t.Helper()
		advance(time.Hour)
		for _, id := range wks {
			co.heartbeat(id, nil)
		}
		l, err := co.lease(wk, nil)
		if err != nil || l == nil {
			t.Fatalf("lease = %v, %v; want a unit", l, err)
		}
		return l
	}, advance
}

// A worker whose copy of a trace is shorter than the coordinator's
// reports each unit it leases as failed instead of running past its
// trace's end and dying; as it is the only worker, the coordinator then
// runs the unit on its own full trace at once, to the rows of an
// all-local run. No lease has to expire on the way.
func TestClusterWorkerShortTrace(t *testing.T) {
	full, short := t.TempDir(), t.TempDir()
	writeTrace(t, full, 4_000, 24_000)
	writeTrace(t, short, 2_000, 8_000)
	runBrokenWorker(t, full, short, false)
}

// A worker whose copy of a trace differs from the coordinator's, with
// the same name and a window that fits, reports each unit it leases as
// failed instead of uploading counters of other bytes under the
// coordinator's cache key; the coordinator then runs the units on its
// own trace, to the rows of an all-local run.
func TestClusterWorkerMismatchedTrace(t *testing.T) {
	full, other := t.TempDir(), t.TempDir()
	writeTrace(t, full, 4_000, 24_000)
	// The worker's gcc.trc records another program under gcc's name.
	recordGcc(t, other, impostorGcc(), 4_000, 24_000)
	runBrokenWorker(t, full, other, false)
}

// Beside a good worker, a worker with a short trace fails units without
// ever being leased one twice: each unit it failed waits for the good
// worker (whose delayed results leave the broken one polling alone) or
// the attempt budget, and the rows are those of an all-local run.
func TestClusterBrokenWorkerBesideGoodOne(t *testing.T) {
	full, short := t.TempDir(), t.TempDir()
	writeTrace(t, full, 4_000, 24_000)
	writeTrace(t, short, 2_000, 8_000)
	runBrokenWorker(t, full, short, true)
}

// runBrokenWorker runs a four-shard trace job over full's gcc.trc on a
// cluster server with a worker whose traces are in broken, where
// gcc.trc cannot serve the job's units, and, when good, a second worker
// over full. The rows must be an all-local run's, the broken worker must
// finish no unit and be leased each unit at most once, and without a
// good worker every lease must end in a failure report or an expiry.
func runBrokenWorker(t *testing.T, full, broken string, good bool) {
	t.Helper()
	spec := traceSpec()
	spec.Shards = 4

	ref := newTestSched(t, t.TempDir(), func(cfg *Config) { cfg.TraceDir = full })
	ref.Start()
	defer ref.Kill()
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, ref, rj.ID, StateDone).Rows

	s, ts := newTestServer(t, t.TempDir(), func(cfg *Config) {
		clusterConfig(cfg)
		cfg.TraceDir = full
	})
	defer s.Kill()
	bad := startTraceWorker(t, ts, "w-broken", broken, Chaos{})
	if good {
		startTraceWorker(t, ts, "w-good", full, Chaos{DelayResults: 100 * time.Millisecond})
	}

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Errorf("rows differ from the all-local run:\n got %+v\nwant %+v", got.Rows, want)
	}
	if bad.UnitsDone.Load() != 0 || (!good && bad.UnitsLost.Load() == 0) {
		t.Errorf("broken worker lost %d and finished %d units; want every unit it leased abandoned", bad.UnitsLost.Load(), bad.UnitsDone.Load())
	}
	tr, ok := s.tracer.Get(j.ID)
	if !ok {
		t.Fatal("the job has no trace")
	}
	leases := map[string]int{}
	for _, sp := range tr.Spans {
		if sp.Name == "unit" && sp.Attrs["worker"] == bad.id {
			leases[sp.Attrs["unit"]]++
		}
	}
	for unit, n := range leases {
		if n > 1 {
			t.Errorf("unit %s was leased %d times to the worker that failed it", unit, n)
		}
	}
	if !good {
		checkLeasesReleasedByFailure(t, s)
	}
}

// startTraceWorker runs one in-process worker over the traces in dir
// until the test ends, and waits for it to register.
func startTraceWorker(t *testing.T, ts *httptest.Server, name, dir string, chaos Chaos) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: ts.URL,
		Name:        name,
		Client:      NewAPIClient(ts.URL, 10*time.Second, 2),
		TraceDir:    dir,
		Chaos:       chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	waitRegistered(t, w)
	return w
}

// A worker whose lease expired mid-unit leaves its uploaded snapshot
// behind; the next holder resumes from it instead of restarting, and the
// result is still exact — for a one-spec unit and for a unit covering
// three specs in one pass. The first worker dies after its first
// snapshot upload (kill-on-lease), so at least one unit is re-issued
// with a checkpoint attached. The successor registers while the victim
// holds its lease: with no live worker the unit would run on the
// coordinator's own pool instead.
func TestClusterResumeFromUploadedCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		specs []string
	}{
		{"one-spec", nil},
		{"three-specs", []string{"2Bc-gskew:8", "gshare:8", "perceptron:4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := fastSpec()
			spec.Shards = 2
			if tc.specs != nil {
				spec.Prophet = ""
				spec.Specs = tc.specs
			}
			want := manyRows(t, spec)

			s, ts := newTestServer(t, t.TempDir(), clusterConfig)
			defer s.Kill()

			w1, _, w1exited := startWorker(t, ts, "w-dies", Chaos{KillOnLease: 1})
			waitRegistered(t, w1)
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); s.co.leased.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the first worker never leased a unit")
				}
			}
			w2, _, _ := startWorker(t, ts, "w-successor", Chaos{})
			waitRegistered(t, w2)
			if err := waitExit(t, w1exited); err != ErrChaosKilled {
				t.Fatalf("first worker exited %v, want ErrChaosKilled", err)
			}

			// The dead worker's upload must be a resumable snapshot of every
			// spec the unit covers.
			var snap []byte
			var held *unit
			s.co.mu.Lock()
			for _, u := range s.co.units {
				if w := u.r.window(u.idx); w.snap != nil {
					snap, held = w.snap, u
				}
			}
			s.co.mu.Unlock()
			if snap == nil {
				t.Fatal("no checkpoint was ever uploaded")
			}
			specs := held.r.ps.specs
			builds := make([]sim.Builder, len(specs))
			for k, ps := range specs {
				if builds[k], err = HybridBuilder(ps, spec.Critic, spec.FutureBits, false); err != nil {
					t.Fatal(err)
				}
			}
			state := newUnitState(builds, held.idx)
			meta := passMeta("bench:gcc", specs, j.Spec.Critic, j.Spec.FutureBits, false)
			if !restoreUnitSnapshot(snap, held.idx, meta, state) || state.measuredDone == 0 {
				t.Fatalf("uploaded snapshot of unit %s (%d specs) does not restore", held.id, len(specs))
			}

			got := waitState(t, s, j.ID, StateDone)
			if !reflect.DeepEqual(got.Rows, want) {
				t.Fatalf("resumed-unit rows differ from sim.Matrix:\n got %+v\nwant %+v", got.Rows, want)
			}
			if n := s.ClusterMetricsSnapshot().LeasesExpired; n == 0 {
				t.Error("no lease ever expired — the kill was not exercised")
			}
		})
	}
}

// restartWithWorker reopens the scheduler over dir with one worker
// registered before Start, so the units it resumes wait for a lease
// instead of running on the coordinator's own pool at once. Lease calls
// are held until release, so the test can inspect the resumed units
// before any is leased.
func restartWithWorker(t *testing.T, dir string) (s *Scheduler, release func()) {
	t.Helper()
	s = newTestSched(t, dir, clusterConfig)
	h := NewServer(s).Handler()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/units/lease" {
			<-gate
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(release) // before Close, which waits for held lease calls
	w, _, _ := startWorker(t, ts, "w-resume", Chaos{})
	waitRegistered(t, w)
	s.Start()
	return s, release
}

// A job checkpoint's in-flight window snapshots survive a restart: crash
// a two-window job mid-window on a server with no workers, restart the
// data directory with a worker registered, and the resumed units carry
// the snapshots as their lease checkpoints. The worker finishes them
// with rows bit-identical to sim.Matrix.
func TestClusterResumesJobCheckpointSnapshots(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	spec.Shards = 2
	want := manyRows(t, spec)

	crashed := make(chan struct{})
	s := newTestSched(t, dir, func(c *Config) {
		c.CheckpointEvery = 2_000
		c.CrashAfterCheckpoints = 3
		c.Crash = func() {
			close(crashed)
			runtime.Goexit()
		}
	})
	s.Start()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("crash injection never fired")
	}
	s.Kill()

	s2, release := restartWithWorker(t, dir)
	defer s2.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for resumed := false; !resumed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no unit resumed with the job checkpoint's snapshot")
		}
		s2.co.mu.Lock()
		for _, u := range s2.co.units {
			resumed = resumed || (u.r.window(u.idx).snap != nil && u.attempts == 0)
		}
		s2.co.mu.Unlock()
	}
	release()
	got := waitState(t, s2, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("rows after a cluster resume differ from sim.Matrix:\n got %+v\nwant %+v", got.Rows, want)
	}
}

// A worker's upload reaches the job checkpoint even when no unit
// finishes: a one-window job's worker uploads one snapshot and dies, and
// the coordinator must persist that upload (the checkpoint write fires
// the crash), so a restarted coordinator resumes the unit from it.
func TestClusterPersistsUploadedSnapshot(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	want := manyRows(t, spec)

	crashed := make(chan struct{})
	s, ts := newTestServer(t, dir, func(c *Config) {
		clusterConfig(c)
		c.CrashAfterCheckpoints = 1
		c.Crash = func() {
			close(crashed)
			runtime.Goexit()
		}
	})
	w, _, exited := startWorker(t, ts, "w-dies", Chaos{KillOnLease: 1})
	waitRegistered(t, w)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitExit(t, exited); err != ErrChaosKilled {
		t.Fatalf("worker exit = %v, want the chaos kill", err)
	}
	select {
	case <-crashed:
	case <-time.After(10 * time.Second):
		t.Fatal("the uploaded snapshot was never persisted")
	}
	s.Kill()

	// The job checkpoint holds the upload: the window's first snapshot.
	meta, dec, ok, err := s.st.readCheckpoint(j.ID)
	if err != nil || !ok {
		t.Fatalf("job checkpoint: ok=%v err=%v", ok, err)
	}
	js := jobState{specIdx: []int{0}, windows: make([]windowState, 1)}
	if err := js.Restore(dec); err != nil {
		t.Fatal(err)
	}
	build, err := HybridBuilder(j.Spec.Specs[0], j.Spec.Critic, j.Spec.FutureBits, j.Spec.Unfiltered)
	if err != nil {
		t.Fatal(err)
	}
	us := newUnitState([]sim.Builder{build}, 0)
	if !restoreUnitSnapshot(js.windows[0].snap, 0, meta, us) || us.measuredDone != 2_000 {
		t.Fatalf("window 0 holds no snapshot at 2000 measured branches (measured %d)", us.measuredDone)
	}

	s2, release := restartWithWorker(t, dir)
	defer s2.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for resumed := false; !resumed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the unit did not resume with the uploaded snapshot")
		}
		s2.co.mu.Lock()
		for _, u := range s2.co.units {
			resumed = resumed || (u.attempts == 0 && string(u.r.window(u.idx).snap) == string(js.windows[0].snap))
		}
		s2.co.mu.Unlock()
	}
	release()
	got := waitState(t, s2, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("rows after resuming an uploaded snapshot differ:\n got %+v\nwant %+v", got.Rows, want)
	}
}

// Stale lease tokens must be fenced with 409 at the HTTP layer, for both
// results and checkpoint uploads.
func TestClusterStaleTokenFenced(t *testing.T) {
	const ttl = 150 * time.Millisecond
	s, ts := newTestServer(t, t.TempDir(), func(cfg *Config) {
		clusterConfig(cfg)
		cfg.LeaseTTL = ttl
	})
	defer s.Kill()

	api := NewAPIClient(ts.URL, 5*time.Second, 0)
	ctx := context.Background()
	var info WorkerInfo
	if _, err := api.PostJSON(ctx, "/v1/workers", WorkerRegistration{Name: "manual"}, &info); err != nil {
		t.Fatal(err)
	}
	// Keep the manual worker alive with a background heartbeat.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for hbCtx.Err() == nil {
			api.PostJSON(hbCtx, "/v1/workers/"+info.ID+"/heartbeat", nil, nil)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	defer wg.Wait()

	spec := fastSpec()
	spec.Shards = 2
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Lease a unit, let the lease expire, then try to deliver under the
	// dead token: both result and checkpoint must bounce with 409.
	var lease UnitLease
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := api.PostJSON(ctx, "/v1/units/lease", LeaseRequest{Worker: info.ID}, &lease)
		if err != nil {
			t.Fatal(err)
		}
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never got a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A result must carry one counter set per leased spec.
	status, _ := api.PostJSON(ctx, "/v1/units/"+lease.Unit+"/result",
		UnitResult{Worker: info.ID, Token: lease.Token, Results: make([]UnitCounters, len(lease.Specs)+1)}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("mis-shaped result delivery: status %d, want 400", status)
	}
	// A failure report carries no counters.
	status, _ = api.PostJSON(ctx, "/v1/units/"+lease.Unit+"/result",
		UnitResult{Worker: info.ID, Token: lease.Token, Results: make([]UnitCounters, len(lease.Specs)), Error: "no trace"}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("failure report with counters: status %d, want 400", status)
	}
	time.Sleep(ttl + 50*time.Millisecond) // the lease is dead

	status, _ = api.PostJSON(ctx, "/v1/units/"+lease.Unit+"/result",
		UnitResult{Worker: info.ID, Token: lease.Token, Results: []UnitCounters{{Branches: 1}}}, nil)
	if status != http.StatusConflict {
		t.Fatalf("stale result delivery: status %d, want 409", status)
	}
	status, _ = api.PostJSON(ctx, "/v1/units/"+lease.Unit+"/checkpoint",
		checkpointUpload{Token: lease.Token, Data: []byte("PCCKjunk")}, nil)
	if status != http.StatusConflict {
		t.Fatalf("stale checkpoint upload: status %d, want 409", status)
	}
	status, _ = api.PostJSON(ctx, "/v1/units/"+lease.Unit+"/result",
		UnitResult{Worker: info.ID, Token: lease.Token, Error: "no trace"}, nil)
	if status != http.StatusConflict {
		t.Fatalf("stale failure report: status %d, want 409", status)
	}
	if n := s.ClusterMetricsSnapshot().ResultsFenced; n < 3 {
		t.Errorf("results_fenced = %d, want >= 3", n)
	}

	// The job must still finish (on the fleetless local fallback or a
	// re-issued lease to our manual worker — either way, exactly).
	stopHB()
	want := directRows(t, spec)
	got := waitState(t, s, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("rows differ after fencing:\n got %+v\nwant %+v", got.Rows, want)
	}
}

func TestParseChaos(t *testing.T) {
	good := []struct {
		spec string
		want Chaos
	}{
		{"", Chaos{}},
		{"kill-on-lease=2", Chaos{KillOnLease: 2}},
		{"drop-heartbeats", Chaos{DropHeartbeats: true}},
		{"delay-results=50ms", Chaos{DelayResults: 50 * time.Millisecond}},
		{"duplicate-deliver", Chaos{DuplicateDeliver: true}},
		{
			"kill-on-lease=3,drop-heartbeats,delay-results=1s,duplicate-deliver",
			Chaos{KillOnLease: 3, DropHeartbeats: true, DelayResults: time.Second, DuplicateDeliver: true},
		},
	}
	for _, tc := range good {
		got, err := ParseChaos(tc.spec)
		if err != nil {
			t.Errorf("ParseChaos(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseChaos(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if rt, err := ParseChaos(got.String()); err != nil || rt != got {
			t.Errorf("ParseChaos(%q).String() = %q does not round-trip", tc.spec, got.String())
		}
	}
	bad := []string{
		"kill-on-lease",       // missing value
		"kill-on-lease=zero",  // not a number
		"kill-on-lease=0",     // must be positive
		"delay-results=-5ms",  // negative
		"delay-results=later", // not a duration
		"warp-drive",          // unknown directive
	}
	for _, spec := range bad {
		if _, err := ParseChaos(spec); err == nil {
			t.Errorf("ParseChaos(%q) succeeded, want error", spec)
		}
	}
}

package experiments

import (
	"bytes"
	"strings"
	"testing"

	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

func TestRegistryCoversEveryPaperArtefact(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig5", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "fig8", "fig9", "fig10",
		"headline",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig5"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

// Cheap experiments run in full even under `go test`.
func TestStaticTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Fast); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestTable3NoOverflow(t *testing.T) {
	var buf bytes.Buffer
	e, _ := ByID("table3")
	if err := e.Run(&buf, Fast); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "OVERFLOW") {
		t.Fatalf("a Table 3 configuration overflows its budget:\n%s", buf.String())
	}
}

// Smoke-test the measurement experiments with the Fast windows; these
// validate plumbing, not published numbers.
func TestMeasurementExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement experiments are slow")
	}
	for _, id := range []string{"fig5", "fig8", "headline"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Fast); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestHybridBuilderShapes(t *testing.T) {
	h := hybridBuilder("2Bc-gskew", 8, "tagged gshare", 8, 8, false)()
	if h.Critic() == nil || !h.Config().Filtered || h.Config().FutureBits != 8 {
		t.Fatal("hybrid builder misconfigured filtered critic")
	}
	alone := hybridBuilder("gshare", 16, "", 0, 0, false)()
	if alone.Critic() != nil {
		t.Fatal("criticKB=0 must build a prophet-alone hybrid")
	}
	unf := hybridBuilder("2Bc-gskew", 8, "perceptron", 8, 4, true)()
	if unf.Config().Filtered {
		t.Fatal("unfiltered builder must not set Filtered")
	}
}

func TestByIDUnknownErrorListsIDs(t *testing.T) {
	_, err := ByID("fig99")
	if err == nil {
		t.Fatal("unknown id must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fig99") {
		t.Errorf("error should echo the unknown id: %v", err)
	}
	// The message enumerates the valid ids so a typo is self-diagnosing.
	for _, id := range []string{"fig5", "table1", "headline"} {
		if !strings.Contains(msg, id) {
			t.Errorf("error should list valid id %q: %v", id, err)
		}
	}
}

func TestByIDEmptyID(t *testing.T) {
	if _, err := ByID(""); err == nil {
		t.Fatal("empty id must error")
	}
}

// Workload resolution must propagate benchmark-loading errors instead of
// deadlocking or dropping them.
func TestProgramsUnknownBenchmark(t *testing.T) {
	if _, err := Fast.Programs([]string{"gcc", "nope"}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

// An explicit workload override replaces the default benchmark set.
func TestProgramsOverride(t *testing.T) {
	opt := Fast
	opt.Workloads = []*program.Program{program.MustLoad("gzip")}
	progs, err := opt.Programs([]string{"gcc", "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || progs[0].Name != "gzip" {
		t.Fatalf("override not honoured: %v", progs)
	}
}

// Sharded functional simulation with full-warmup replay must leave every
// emitted table byte-identical to the sequential run — the invariant the
// golden-output CI job depends on when -shards is in play.
func TestShardedOutputByteIdentical(t *testing.T) {
	e, err := ByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	var seq, sharded bytes.Buffer
	if err := e.Run(&seq, Fast); err != nil {
		t.Fatal(err)
	}
	opt := Fast
	opt.Shards = sim.ShardOptions{Shards: 4, WarmupFrac: 1}
	if err := e.Run(&sharded, opt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), sharded.Bytes()) {
		t.Fatal("fig5 output changed under 4-way sharding with full-warmup replay")
	}
}

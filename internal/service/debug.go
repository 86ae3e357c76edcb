package service

// Runtime introspection behind pcserved's -debug-addr flag: the
// net/http/pprof profiling endpoints, /statusz (a JSON snapshot of
// build info, uptime, configuration and runtime stats), and /metricsz,
// the one place the job, cache, fleet and simulator counters are read.
// The debug mux is deliberately separate from the API mux so profiling
// is never exposed on the serving port by accident.

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"
)

// Statusz is the GET /statusz response.
type Statusz struct {
	Service   string    `json:"service"`
	GoVersion string    `json:"go_version"`
	Revision  string    `json:"revision,omitempty"`
	StartTime time.Time `json:"start_time"`
	UptimeSec float64   `json:"uptime_seconds"`

	Config struct {
		DataDir         string `json:"data_dir"`
		Workers         int    `json:"workers"`
		QueueCap        int    `json:"queue_cap"`
		CheckpointEvery int    `json:"checkpoint_every"`
	} `json:"config"`

	Runtime struct {
		Goroutines int    `json:"goroutines"`
		HeapAlloc  uint64 `json:"heap_alloc_bytes"`
		HeapSys    uint64 `json:"heap_sys_bytes"`
		NumGC      uint32 `json:"num_gc"`
	} `json:"runtime"`
}

// statusz builds the snapshot.
func (s *Scheduler) statusz(start time.Time) Statusz {
	var st Statusz
	st.Service = "pcserved"
	st.GoVersion = runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				st.Revision = kv.Value
			}
		}
	}
	st.StartTime = start
	st.UptimeSec = time.Since(start).Seconds()
	st.Config.DataDir = s.cfg.DataDir
	st.Config.Workers = s.cfg.Workers
	st.Config.QueueCap = s.cfg.QueueCap
	st.Config.CheckpointEvery = s.cfg.CheckpointEvery
	st.Runtime.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.Runtime.HeapAlloc = ms.HeapAlloc
	st.Runtime.HeapSys = ms.HeapSys
	st.Runtime.NumGC = ms.NumGC
	return st
}

// DebugHandler returns the introspection mux served on -debug-addr:
// /debug/pprof/* (profiling), /statusz (JSON state snapshot), and
// /metricsz (the same registry the API port serves, for scrapers that
// only reach the debug port).
func DebugHandler(s *Scheduler) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metricsz", s.Registry().Handler())
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.statusz(start))
	})
	return mux
}

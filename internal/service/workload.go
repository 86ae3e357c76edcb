package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"prophetcritic/internal/program"
	"prophetcritic/internal/trace"
)

// traceMemoCap bounds the bytes one traceMemo keeps: a decoded trace's
// program.DecodedBytes, a materialized benchmark's outcome bitmap.
const traceMemoCap = 256 << 20

// traceMemo keeps replay-form workload programs by content identity: a
// decoded trace, or a benchmark's committed stream materialized up to
// the longest window end asked of it so far. So the jobs and units of
// one process that replay the same bytes decode them once, and the
// passes over one benchmark run its models once. A replay-form program
// is immutable and stateless, so one serves every caller at once. Past
// its limit the memo evicts the least recently used program; a program
// larger than the limit is returned but never kept. A benchmark entry
// is charged its bitmap only: Materialize shares its blocks with
// program.Load's memo. A Scheduler and a Worker each own one.
type traceMemo struct {
	limit int // in bytes

	mu           sync.Mutex
	lru          list.List // of *memoEntry, most recently used first
	byID         map[string]*list.Element
	bytes        int
	hits, misses uint64
}

type memoEntry struct {
	id    string
	p     *program.Program
	bytes int
}

func newTraceMemo(limit int) *traceMemo {
	return &traceMemo{limit: limit, byID: make(map[string]*list.Element)}
}

// loadWorkload resolves a workload reference against a trace directory
// to a runnable program and the content-addressed identity its cache
// cells are keyed by. need is the end of the longest window the caller
// runs. A benchmark name is a stable generator ("bench:gcc"); its
// program comes back materialized through need, from the memo when the
// kept one reaches that far and rebuilt longer (and kept instead)
// otherwise, or synthetic when its bitmap would not fit the memo. A
// trace name must stay inside traceDir (a lease is outside input too);
// its file is read once and hashed ("trace:<sha256>"), and the bytes
// are decoded only when the memo holds no program under that identity.
// So the identity covers exactly the bytes the program came from, and a
// re-recorded or renamed trace never aliases a stale cell.
func (m *traceMemo) loadWorkload(ref WorkloadRef, traceDir string, need int) (*program.Program, string, error) {
	switch ref.Kind {
	case "bench":
		id := "bench:" + ref.Name
		if p := m.get(id, need); p != nil {
			return p, id, nil
		}
		p, err := program.Load(ref.Name)
		if err != nil {
			return nil, "", err
		}
		if bitmap := (need + 63) / 64 * 8; need > 0 && bitmap <= m.limit {
			p = p.Materialize(need)
			m.put(id, p, bitmap)
		}
		return p, id, nil
	case "trace":
		if traceDir == "" {
			return nil, "", fmt.Errorf("service: trace workload %q needs a trace directory", ref.Name)
		}
		if err := validTracePath(ref.Name); err != nil {
			return nil, "", err
		}
		b, err := os.ReadFile(filepath.Join(traceDir, ref.Name))
		if err != nil {
			return nil, "", fmt.Errorf("service: trace workload %q: %w", ref.Name, err)
		}
		sum := sha256.Sum256(b)
		id := "trace:" + hex.EncodeToString(sum[:])
		if p := m.get(id, 0); p != nil {
			return p, id, nil
		}
		p, err := trace.Read(bytes.NewReader(b))
		if err != nil {
			return nil, "", fmt.Errorf("service: trace workload %q: %w", ref.Name, err)
		}
		m.put(id, p, p.DecodedBytes())
		return p, id, nil
	default:
		return nil, "", fmt.Errorf("service: unknown workload kind %q", ref.Kind)
	}
}

// get returns the program kept under id if it holds at least need
// branches, or nil, counting the lookup.
func (m *traceMemo) get(id string, need int) *program.Program {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byID[id]
	if !ok || e.Value.(*memoEntry).p.TraceEvents() < uint64(need) {
		m.misses++
		return nil
	}
	m.hits++
	m.lru.MoveToFront(e)
	return e.Value.(*memoEntry).p
}

// put keeps p, charged n bytes, under id, replacing a shorter program
// kept there, and evicts least recently used programs until the memo
// fits its limit again. Concurrent misses on one identity each build;
// the longest (of equals, the first to finish) is kept.
func (m *traceMemo) put(id string, p *program.Program, n int) {
	if n > m.limit {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.byID[id]; ok {
		old := e.Value.(*memoEntry)
		if old.p.TraceEvents() >= p.TraceEvents() {
			return
		}
		m.lru.Remove(e)
		m.bytes -= old.bytes
	}
	m.byID[id] = m.lru.PushFront(&memoEntry{id: id, p: p, bytes: n})
	m.bytes += n
	for m.bytes > m.limit {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.byID, old.id)
		m.bytes -= old.bytes
	}
}

// memoStats is a point-in-time copy of a traceMemo's counters.
type memoStats struct {
	hits, misses uint64
	bytes        int
}

func (m *traceMemo) stats() memoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return memoStats{hits: m.hits, misses: m.misses, bytes: m.bytes}
}

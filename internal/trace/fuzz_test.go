package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"prophetcritic/internal/program"
)

// wrapBody frames an uncompressed trace body as a trace file: the magic,
// the version byte, and the body as one gzip stream.
func wrapBody(t testing.TB, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(version)
	zw, err := gzip.NewWriterLevel(&buf, gzip.NoCompression) // stored blocks: cheap per exec
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// headerBody is the body of a trace whose header declares nBlocks CFG
// blocks, followed by the given uvarints and nothing else.
func headerBody(nBlocks uint64, rest ...uint64) []byte {
	b := []byte{1, 'x', 0}               // name "x", suite ""
	b = binary.AppendUvarint(b, 7)       // seed
	b = binary.AppendUvarint(b, 0)       // warmup
	b = binary.AppendUvarint(b, 100)     // measure
	b = binary.AppendUvarint(b, nBlocks) // CFG size
	for _, v := range rest {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestReaderRejectsCorruptHeader: a CFG header the reader cannot trust
// fails NewReader with an error. A block count of 2^40 in a
// few-dozen-byte file must not be allocated up front, and an edge code
// of 2^63 or more must not wrap negative and pass as "no edge".
func TestReaderRejectsCorruptHeader(t *testing.T) {
	for _, c := range []struct {
		name string
		body []byte
		want string
	}{
		{"2^40 blocks, truncated body", headerBody(1 << 40), "reading CFG block 0"},
		// One block at 0x400 (svarint 0x800), 1 uop, no mem/fp uops.
		{"wrapped taken edge", headerBody(1, 0x800, 1, 0, 0, 1<<63+7, 0), "taken edge"},
		{"wrapped fall-through edge", headerBody(1, 0x800, 1, 0, 0, 1, 1<<64-1), "fall-through edge"},
		{"edge past the last block", headerBody(1, 0x800, 1, 0, 0, 2, 0), "taken edge"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(wrapBody(t, c.body)))
			if err == nil {
				t.Fatalf("NewReader accepted the header; CFG %+v", r.CFG())
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewReader error %q, want it to mention %q", err, c.want)
			}
		})
	}
}

// FuzzTraceReader feeds arbitrary bytes to the trace decoder as the gzip
// body behind a valid magic and version, so coverage reaches the varint
// decoder rather than stopping at the framing. The reader's contract on
// untrusted input: never panic, never allocate beyond its bounds, and
// hand out only in-range CFG edges and block IDs. When the bytes decode,
// Read must either reject them or return a program that replays their
// full length without panicking, reproducing the decoded (Addr, Taken)
// stream. The seed corpus holds the bodies of a short recorded trace
// with a CFG, a CFG-less one, one whose events leave its CFG, and the
// corrupt headers of TestReaderRejectsCorruptHeader.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		file := wrapBody(t, body)
		r, err := NewReader(bytes.NewReader(file))
		if err != nil {
			return
		}
		defer r.Close()
		cfg := r.CFG()
		for i, b := range cfg {
			if b.TakenTo < -1 || b.TakenTo >= len(cfg) || b.NotTakenTo < -1 || b.NotTakenTo >= len(cfg) {
				t.Fatalf("block %d: edges (%d, %d) out of range for %d blocks", i, b.TakenTo, b.NotTakenTo, len(cfg))
			}
		}
		var events []program.Event
		for {
			ev, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			if cfg != nil && (ev.BlockID < 0 || ev.BlockID >= len(cfg) || cfg[ev.BlockID].Addr != ev.Addr) {
				t.Fatalf("event %+v does not name its CFG block", ev)
			}
			events = append(events, ev)
		}

		p, err := Read(bytes.NewReader(file))
		if err != nil {
			return
		}
		if p.TraceEvents() != uint64(len(events)) {
			t.Fatalf("program holds %d events, the reader decoded %d", p.TraceEvents(), len(events))
		}
		run := p.NewRun()
		for i, want := range events {
			if got := run.Next(); got.Addr != want.Addr || got.Taken != want.Taken {
				t.Fatalf("replay event %d: %#x taken=%v, decoded %#x taken=%v", i, got.Addr, got.Taken, want.Addr, want.Taken)
			}
		}
	})
}

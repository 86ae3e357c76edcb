package checkpoint

import (
	"bytes"
	"strings"
	"testing"
)

func TestScalarRoundTrip(t *testing.T) {
	enc := NewEncoder()
	enc.Section("s")
	enc.Uvarint(0)
	enc.Uvarint(1<<63 + 17)
	enc.Svarint(-12345)
	enc.Bool(true)
	enc.Bool(false)
	enc.Float64(3.25)
	enc.String("hello")

	dec := NewDecoder(enc.Bytes())
	dec.Section("s")
	if v := dec.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d, want 0", v)
	}
	if v := dec.Uvarint(); v != 1<<63+17 {
		t.Errorf("uvarint = %d", v)
	}
	if v := dec.Svarint(); v != -12345 {
		t.Errorf("svarint = %d", v)
	}
	if !dec.Bool() || dec.Bool() {
		t.Error("bools corrupted")
	}
	if v := dec.Float64(); v != 3.25 {
		t.Errorf("float64 = %v", v)
	}
	if v := dec.String(); v != "hello" {
		t.Errorf("string = %q", v)
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if dec.Remaining() != 0 {
		t.Errorf("%d bytes left over", dec.Remaining())
	}
}

func TestSliceRoundTrip(t *testing.T) {
	u8 := []uint8{0, 1, 2, 3, 255}
	i8 := []int8{-128, -1, 0, 1, 127}
	u64 := []uint64{0, 1, 1 << 40, ^uint64(0)}
	enc := NewEncoder()
	enc.Uint8s(u8)
	enc.Int8s(i8)
	enc.Uint64s(u64)
	blob := []byte("PCCK\x01nested")
	enc.Blob(blob)

	dec := NewDecoder(enc.Bytes())
	g8 := make([]uint8, len(u8))
	gi8 := make([]int8, len(i8))
	g64 := make([]uint64, len(u64))
	dec.Uint8s(g8)
	dec.Int8s(gi8)
	dec.Uint64s(g64)
	gb := dec.Blob()
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, blob) || dec.Remaining() != 0 {
		t.Errorf("blob = %q with %d bytes left", gb, dec.Remaining())
	}
	if !bytes.Equal(g8, u8) {
		t.Errorf("uint8s = %v", g8)
	}
	for i := range i8 {
		if gi8[i] != i8[i] {
			t.Errorf("int8s[%d] = %d, want %d", i, gi8[i], i8[i])
		}
	}
	for i := range u64 {
		if g64[i] != u64[i] {
			t.Errorf("uint64s[%d] = %d, want %d", i, g64[i], u64[i])
		}
	}
}

func TestSliceLengthMismatch(t *testing.T) {
	enc := NewEncoder()
	enc.Uint8s([]uint8{1, 2, 3})
	dec := NewDecoder(enc.Bytes())
	dec.Uint8s(make([]uint8, 4))
	if dec.Err() == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestBlobOverrun(t *testing.T) {
	enc := NewEncoder()
	enc.Blob([]byte{1, 2, 3})
	dec := NewDecoder(enc.Bytes()[:3])
	if b := dec.Blob(); b != nil || dec.Err() == nil {
		t.Fatalf("truncated blob = %v, err %v; want an error", b, dec.Err())
	}
}

func TestSectionMismatch(t *testing.T) {
	enc := NewEncoder()
	enc.Section("gshare")
	dec := NewDecoder(enc.Bytes())
	dec.Section("gskew")
	if err := dec.Err(); err == nil || !strings.Contains(err.Error(), "gskew") {
		t.Fatalf("section mismatch error = %v", err)
	}
}

func TestErrorsAreSticky(t *testing.T) {
	dec := NewDecoder(nil)
	dec.Uvarint() // truncated
	first := dec.Err()
	if first == nil {
		t.Fatal("truncated read must error")
	}
	dec.Failf("later failure")
	if dec.Err() != first {
		t.Fatal("first error must win")
	}
	if v, b, s := dec.Uvarint(), dec.Bool(), dec.String(); v != 0 || b || s != "" {
		t.Fatal("reads after an error must return zero values")
	}
}

func TestTruncatedReads(t *testing.T) {
	enc := NewEncoder()
	enc.String("abcdef")
	full := enc.Bytes()
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(full[:cut])
		if s := dec.String(); dec.Err() == nil {
			t.Fatalf("truncation at %d bytes must error (read %q)", cut, s)
		}
	}
}

// TestNonMinimalVarintRejected: a varint padded with zero continuation
// groups decodes to the same value but is not what the Encoder writes,
// so the Decoder refuses it; accepted input then re-encodes to itself.
func TestNonMinimalVarintRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		buf  []byte
		read func(*Decoder) any
	}{
		{"uvarint 0", []byte{0x80, 0x00}, func(d *Decoder) any { return d.Uvarint() }},
		{"uvarint 1", []byte{0x81, 0x80, 0x00}, func(d *Decoder) any { return d.Uvarint() }},
		{"svarint -1", []byte{0x81, 0x00}, func(d *Decoder) any { return d.Svarint() }},
		{"string length", []byte{0x81, 0x00, 'x'}, func(d *Decoder) any { return d.String() }},
	} {
		dec := NewDecoder(tc.buf)
		got := tc.read(dec)
		if dec.Err() == nil {
			t.Errorf("%s: non-minimal encoding % x accepted as %v", tc.name, tc.buf, got)
		}
	}
	enc := NewEncoder()
	enc.Uvarint(0)
	enc.Uvarint(1 << 63)
	enc.Svarint(-1 << 40)
	dec := NewDecoder(enc.Bytes())
	if a, b, c := dec.Uvarint(), dec.Uvarint(), dec.Svarint(); dec.Err() != nil || a != 0 || b != 1<<63 || c != -1<<40 {
		t.Fatalf("minimal encodings must decode: %d %d %d %v", a, b, c, dec.Err())
	}
}

// stub is a minimal Snapshotter for file-format tests.
type stub struct{ v uint64 }

func (s *stub) Snapshot(enc *Encoder) { enc.Section("stub"); enc.Uvarint(s.v) }
func (s *stub) Restore(dec *Decoder) error {
	dec.Section("stub")
	v := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	s.v = v
	return nil
}

func TestFileRoundTrip(t *testing.T) {
	meta := Meta{
		Workload:   "gcc",
		Prophet:    "2Bc-gskew:8",
		Critic:     "tagged gshare:8",
		FutureBits: 8,
		Unfiltered: false,
		Position:   123456,
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, meta, &stub{v: 99}); err != nil {
		t.Fatal(err)
	}
	got, dec, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("meta = %+v, want %+v", got, meta)
	}
	var s stub
	if err := s.Restore(dec); err != nil {
		t.Fatal(err)
	}
	if s.v != 99 {
		t.Fatalf("state = %d, want 99", s.v)
	}
}

func TestFileBadMagic(t *testing.T) {
	if _, _, err := ReadFile(bytes.NewReader([]byte("PCTRx trace, not a checkpoint"))); err == nil {
		t.Fatal("bad magic must error")
	}
}

func TestFileBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, Meta{Workload: "w"}, &stub{}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = Version + 1
	if _, _, err := ReadFile(bytes.NewReader(b)); err == nil {
		t.Fatal("future version must error")
	}
}

func TestFileTruncated(t *testing.T) {
	if _, _, err := ReadFile(bytes.NewReader([]byte("PC"))); err == nil {
		t.Fatal("truncated header must error")
	}
}

// Package checkpoint implements the uniform snapshot/restore seam of the
// simulator: a versioned binary codec for the mutable state of every
// checkpointed component (predictor pattern tables, history registers,
// the hybrid itself, and the service's job and unit state). The timing
// model (caches, BTB, front-end) is rebuilt per run and never saved.
//
// The codec deliberately reuses the varint framing of internal/trace:
// unsigned values are uvarints, signed values are zigzag varints, and
// repeated state (pattern tables, packed weight rows) is length-prefixed,
// so a checkpoint of an 8KB predictor is a few KB on disk. Every
// component writes a leading section tag, which turns a mismatched or
// reordered restore into a descriptive error instead of silently
// misinterpreted bytes.
//
// Two layers are provided:
//
//   - Encoder/Decoder: the raw codec. Components implement Snapshotter
//     against it; Restore errors are sticky on the Decoder, so component
//     code reads fields unconditionally and checks dec.Err() once.
//   - Append/WriteFile/ReadFile: the "PCCK" file format used by `trace
//     checkpoint`: a 5-byte plain header (magic + version), a Meta
//     record describing how to rebuild the predictor structure, and the
//     component state payload.
//
// The mid-trace checkpoint tooling (cmd/trace checkpoint), the service's
// durable jobs, and the cluster's mid-unit snapshots are its consumers.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Format constants. Version is bumped whenever any component changes its
// serialized layout; readers reject versions they do not understand.
const (
	magic   = "PCCK"
	Version = 1
)

// Snapshotter is the uniform state interface implemented by every
// stateful simulation component. Snapshot appends the component's
// complete mutable state to the encoder; Restore reads it back into an
// identically configured component (same geometry, history lengths,
// associativity). Snapshot→Restore→Snapshot must be byte-identical, and
// a restored component must behave exactly like the original from the
// snapshot point on.
//
// Configuration (table sizes, history lengths) is deliberately NOT part
// of the snapshot: the caller rebuilds the structure first (e.g. from a
// Meta record) and restores state into it. Restore validates geometry
// where it can and returns an error — never panics — on mismatch or
// corrupt input.
type Snapshotter interface {
	Snapshot(enc *Encoder)
	Restore(dec *Decoder) error
}

// Encoder appends state to a byte buffer using varint framing.
type Encoder struct {
	buf     []byte
	scratch [binary.MaxVarintLen64]byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer. The slice aliases the encoder's
// internal storage; it is valid until the next append.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the buffer, keeping its storage for the next encoding.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Section writes a named section marker. Decoders verify the tag, so a
// restore that drifts out of sync fails with a descriptive error at the
// next section boundary instead of silently misreading state.
func (e *Encoder) Section(tag string) { e.String(tag) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	if v < 0x80 { // one byte: most table entries
		e.buf = append(e.buf, byte(v))
		return
	}
	n := binary.PutUvarint(e.scratch[:], v)
	e.buf = append(e.buf, e.scratch[:n]...)
}

// Svarint appends a zigzag-encoded signed varint.
func (e *Encoder) Svarint(v int64) {
	n := binary.PutVarint(e.scratch[:], v)
	e.buf = append(e.buf, e.scratch[:n]...)
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	e.buf = append(e.buf, v)
}

// Float64 appends the IEEE-754 bit pattern of f (timing-model clocks).
func (e *Encoder) Float64(f float64) { e.Uvarint(math.Float64bits(f)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Uint8s appends a length-prefixed byte slice (flat counter tables).
func (e *Encoder) Uint8s(s []uint8) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte string of any length (a nested
// checkpoint file); Decoder.Blob reads it back.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Int8s appends a length-prefixed int8 slice (perceptron bias weights).
func (e *Encoder) Int8s(s []int8) {
	e.Uvarint(uint64(len(s)))
	for _, v := range s {
		e.buf = append(e.buf, uint8(v))
	}
}

// Uint64s appends a length-prefixed uint64 slice, each element a
// uvarint (packed weight rows, local history tables).
func (e *Encoder) Uint64s(s []uint64) {
	e.Uvarint(uint64(len(s)))
	for _, v := range s {
		e.Uvarint(v)
	}
}

// Decoder reads state encoded by Encoder. Errors are sticky: after the
// first failure every read returns the zero value and Err reports the
// failure, so Restore implementations read unconditionally and check
// Err once at the end.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Failf records a decoding error (used by components for semantic
// validation, e.g. geometry mismatches); the first error wins.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// Section verifies the next section marker matches tag.
func (d *Decoder) Section(tag string) {
	got := d.String()
	if d.err == nil && got != tag {
		d.Failf("expected section %q, found %q (mismatched component order or corrupt checkpoint)", tag, got)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.Failf("truncated uvarint at offset %d", d.pos)
		return 0
	}
	if !d.minimal(n) {
		return 0
	}
	d.pos += n
	return v
}

// Svarint reads a zigzag-encoded signed varint.
func (d *Decoder) Svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.Failf("truncated svarint at offset %d", d.pos)
		return 0
	}
	if !d.minimal(n) {
		return 0
	}
	d.pos += n
	return v
}

// minimal reports whether the n-byte varint at the read position is
// minimally encoded, failing the decoder if it is not. A longer encoding
// ends in a zero byte; the Encoder never writes one, and refusing it
// keeps every accepted encoding equal to the Encoder's, byte for byte.
func (d *Decoder) minimal(n int) bool {
	if n > 1 && d.buf[d.pos+n-1] == 0 {
		d.Failf("non-minimal varint at offset %d", d.pos)
		return false
	}
	return true
}

// Bool reads a boolean byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.buf) {
		d.Failf("truncated bool at offset %d", d.pos)
		return false
	}
	v := d.buf[d.pos]
	d.pos++
	if v > 1 {
		d.Failf("bad bool byte %d at offset %d", v, d.pos-1)
		return false
	}
	return v == 1
}

// Float64 reads an IEEE-754 bit pattern.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uvarint()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.Failf("string of %d bytes overruns the %d remaining", n, d.Remaining())
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// Blob reads a length-prefixed byte string written by Encoder.Blob into
// a new slice.
func (d *Decoder) Blob() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Failf("blob of %d bytes overruns the %d remaining", n, d.Remaining())
		return nil
	}
	b := append([]byte(nil), d.buf[d.pos:d.pos+int(n)]...)
	d.pos += int(n)
	return b
}

// Uint8s reads a length-prefixed byte slice into dst, which must have
// exactly the encoded length — the geometry guard that catches a
// snapshot restored into a differently sized table.
func (d *Decoder) Uint8s(dst []uint8) {
	n := d.Uvarint()
	if d.err != nil {
		return
	}
	if n != uint64(len(dst)) {
		d.Failf("table of %d entries restored into %d-entry table", n, len(dst))
		return
	}
	if n > uint64(d.Remaining()) {
		d.Failf("table of %d bytes overruns the %d remaining", n, d.Remaining())
		return
	}
	copy(dst, d.buf[d.pos:d.pos+int(n)])
	d.pos += int(n)
}

// Int8s reads a length-prefixed int8 slice into dst (exact length).
func (d *Decoder) Int8s(dst []int8) {
	n := d.Uvarint()
	if d.err != nil {
		return
	}
	if n != uint64(len(dst)) {
		d.Failf("table of %d entries restored into %d-entry table", n, len(dst))
		return
	}
	if n > uint64(d.Remaining()) {
		d.Failf("table of %d bytes overruns the %d remaining", n, d.Remaining())
		return
	}
	for i := range dst {
		dst[i] = int8(d.buf[d.pos+i])
	}
	d.pos += int(n)
}

// Uint64s reads a length-prefixed uint64 slice into dst (exact length).
func (d *Decoder) Uint64s(dst []uint64) {
	n := d.Uvarint()
	if d.err != nil {
		return
	}
	if n != uint64(len(dst)) {
		d.Failf("table of %d entries restored into %d-entry table", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = d.Uvarint()
	}
}

// Meta describes how to rebuild the predictor whose state a checkpoint
// file carries, plus where in the workload it was taken. Prophet and
// Critic are the same "kind:KB" specs the CLIs accept ("none" or ""
// means no critic); Position is the number of committed branches
// consumed when the snapshot was taken.
type Meta struct {
	Workload   string // benchmark or trace workload name
	Prophet    string // prophet spec, kind:KB
	Critic     string // critic spec, kind:KB, or "none"
	FutureBits uint
	Unfiltered bool   // critique every branch even if the critic is tagged
	Position   uint64 // committed branches consumed before the snapshot
}

// Append appends the bytes of a checkpoint file to dst — magic,
// version, meta, then the snapshot of state — and returns the extended
// buffer, so a caller that checkpoints repeatedly can reuse one.
func Append(dst []byte, meta Meta, state Snapshotter) []byte {
	enc := &Encoder{buf: dst}
	enc.buf = append(enc.buf, magic...)
	enc.buf = append(enc.buf, Version)
	enc.Section("meta")
	enc.String(meta.Workload)
	enc.String(meta.Prophet)
	enc.String(meta.Critic)
	enc.Uvarint(uint64(meta.FutureBits))
	enc.Bool(meta.Unfiltered)
	enc.Uvarint(meta.Position)
	enc.Section("state")
	state.Snapshot(enc)
	return enc.Bytes()
}

// WriteFile writes a checkpoint file to w.
func WriteFile(w io.Writer, meta Meta, state Snapshotter) error {
	if _, err := w.Write(Append(nil, meta, state)); err != nil {
		return fmt.Errorf("checkpoint: writing: %w", err)
	}
	return nil
}

// ReadFile parses a checkpoint file header and meta record and returns a
// decoder positioned at the state payload, ready for the caller to
// rebuild the predictor from meta and Restore into it.
func ReadFile(r io.Reader) (Meta, *Decoder, error) {
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return Meta{}, nil, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint file)", head[:len(magic)])
	}
	if head[len(magic)] != Version {
		return Meta{}, nil, fmt.Errorf("checkpoint: unsupported version %d (have %d)", head[len(magic)], Version)
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: reading body: %w", err)
	}
	dec := NewDecoder(body)
	var meta Meta
	dec.Section("meta")
	meta.Workload = dec.String()
	meta.Prophet = dec.String()
	meta.Critic = dec.String()
	meta.FutureBits = uint(dec.Uvarint())
	meta.Unfiltered = dec.Bool()
	meta.Position = dec.Uvarint()
	dec.Section("state")
	if err := dec.Err(); err != nil {
		return Meta{}, nil, err
	}
	return meta, dec, nil
}

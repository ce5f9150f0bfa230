// Package transport is the wire layer for running one load-balancing
// instance across processes: a length-prefixed binary framing over any
// io.ReadWriter (unix or TCP sockets in practice), a primitive
// append/consume codec for the payloads, and the flow records the shard
// engines exchange at the decide/commit barrier.
//
// The framing is deliberately minimal: every frame is
//
//	[u32 LE payload length] [u8 kind] [payload]
//
// with the kind byte outside the counted payload. All multi-byte
// integers in payloads are little-endian; float64s travel as their IEEE
// 754 bit patterns, so values round-trip bit-exactly — the property the
// engines' bit-identical-trajectory contract rests on. Domain encodings
// (CSR graphs, engine configs, event batches) live with their owners in
// package shard, built from the primitives here.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Kind identifies a frame's payload type. The values are part of the
// wire protocol; never renumber, only append. 3, 4, 9, 10, 11, 14, 15,
// 18 and 21 are retired (the full load gather and broadcast, a
// standalone event batch and its report, an events acknowledgement, a
// checkpoint request and its acknowledgement, a separate telemetry
// frame and a whole-state load) and must not be reused. Payload layouts
// are private to one build: a coordinator and its workers must come
// from the same source.
type Kind uint8

const (
	// KindConfig carries the instance (a graph descriptor or the
	// explicit CSR, plus the speeds) and the worker's own-range state from
	// coordinator to worker at session start or resume.
	KindConfig Kind = 1
	// KindRound announces a round to the workers: round number, the
	// round's rng stream words and, behind a one-byte flag, the worker's
	// slice of the round's event batch.
	KindRound Kind = 2
	// KindFlows carries one shard's outbound flow lists after decide.
	KindFlows Kind = 5
	// KindVote is a worker's acknowledgement of its config frame: the
	// worker has built its window and engine and is ready for rounds.
	KindVote Kind = 6
	// KindGrant is the coordinator's commit grant: global move bases
	// and a one-byte refold flag (weighted only; set when the round ends
	// with a rebuild of the cached weight sums), then the shard's
	// inbound flows.
	KindGrant Kind = 7
	// KindStepDone reports a committed round: the refold flag echoed,
	// followed on a refold round by the shard's refolded own-row weight
	// sums, then the worker's cumulative telemetry (phase and
	// barrier-wait nanoseconds, flow volumes and its connection counters
	// as of this frame's write, which they do not count).
	KindStepDone Kind = 8
	// KindStateReq asks a worker for its own-range state, for a state
	// gather or a checkpoint.
	KindStateReq Kind = 12
	// KindState carries a worker's own-range state snapshot.
	KindState Kind = 13
	// KindDone ends the session.
	KindDone Kind = 16
	// KindError carries a fatal error string from either side.
	KindError Kind = 17
	// KindBoundaryLoads carries one shard's boundary-node loads to the
	// coordinator (ascending node order, matching Partition.Boundary),
	// followed by the shard's event report when the round frame carried
	// an event batch. Its payload size is O(boundary), not O(n/P).
	KindBoundaryLoads Kind = 19
	// KindHaloLoads carries a shard's halo loads from the coordinator
	// (slot order, matching Partition.Halo). Its payload size is
	// O(halo), not O(n).
	KindHaloLoads Kind = 20
)

// maxFrame bounds a frame's payload so a corrupt or adversarial length
// prefix cannot make the reader allocate unbounded memory.
const maxFrame = 1 << 30

// Conn frames messages over an underlying stream. Reads and writes are
// buffered; Flush must be called after the writes of a protocol turn
// (WriteFrame flushes by default for simplicity — the exchange pattern
// is strictly turn-based, so per-frame flushes cost nothing measurable
// against a round of protocol work).
type Conn struct {
	r   *bufio.Reader
	w   *bufio.Writer
	hdr [5]byte
	buf []byte

	// Telemetry counters, updated with atomics so a scraper can read
	// them while the protocol goroutine frames traffic. Byte counts
	// include the 5-byte frame header.
	framesSent atomic.Uint64
	bytesSent  atomic.Uint64
	framesRecv atomic.Uint64
	bytesRecv  atomic.Uint64
}

// ConnStats is a snapshot of a connection's frame/byte counters.
type ConnStats struct {
	FramesSent uint64 `json:"framesSent"`
	BytesSent  uint64 `json:"bytesSent"`
	FramesRecv uint64 `json:"framesRecv"`
	BytesRecv  uint64 `json:"bytesRecv"`
}

// Add accumulates other into s.
func (s *ConnStats) Add(other ConnStats) {
	s.FramesSent += other.FramesSent
	s.BytesSent += other.BytesSent
	s.FramesRecv += other.FramesRecv
	s.BytesRecv += other.BytesRecv
}

// Stats snapshots the connection's cumulative frame/byte counters.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		FramesSent: c.framesSent.Load(),
		BytesSent:  c.bytesSent.Load(),
		FramesRecv: c.framesRecv.Load(),
		BytesRecv:  c.bytesRecv.Load(),
	}
}

// NewConn wraps rw in a framed connection.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, 1<<16), w: bufio.NewWriterSize(rw, 1<<16)}
}

// WriteFrame sends one frame and flushes it.
func (c *Conn) WriteFrame(kind Kind, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame payload %d exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(c.hdr[:4], uint32(len(payload)))
	c.hdr[4] = byte(kind)
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(payload); err != nil {
		return err
	}
	c.framesSent.Add(1)
	c.bytesSent.Add(uint64(len(c.hdr)) + uint64(len(payload)))
	return c.w.Flush()
}

// readChunk is the first allocation for a frame payload that does not
// fit the read buffer, and readGrowth the factor by which the buffer then
// grows as bytes arrive. A header that claims more than the stream
// delivers costs at most readGrowth times the bytes that came, and an
// honest frame is read with at most 1/(readGrowth−1) of its length in
// discarded smaller buffers. Doubling discards up to a whole frame per
// read, which showed as ~23 MB more peak RSS on the cluster benchmark
// than allocating the claimed length; eightfold growth stays within that
// benchmark's run-to-run spread (EXPERIMENTS.md).
const (
	readChunk  = 64 << 10
	readGrowth = 8
)

// ReadFrame reads the next frame. The returned payload is valid until
// the next ReadFrame call: frames are read into one reused buffer, which
// keeps the capacity of the largest frame read since the last
// ReleaseBuffer. The buffer grows only as payload bytes arrive, never
// past the frame, so a header cannot make the reader allocate the length
// it claims (up to the 1 GiB cap) before the bytes exist.
func (c *Conn) ReadFrame() (Kind, []byte, error) {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(c.hdr[:4]))
	kind := Kind(c.hdr[4])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("transport: frame length %d exceeds limit", n)
	}
	buf := c.buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(readGrowth*cap(buf), readChunk)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(c.r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			c.buf = buf
			return 0, nil, fmt.Errorf("transport: truncated %v frame: %w", kind, err)
		}
	}
	c.buf = buf
	c.framesRecv.Add(1)
	c.bytesRecv.Add(uint64(len(c.hdr)) + uint64(n))
	return kind, c.buf, nil
}

// ReleaseBuffer drops the read buffer, so that a frame much larger than
// the ones that follow it (a session's config) is not held for the rest
// of the session; the next ReadFrame grows a new buffer for its own
// frame.
func (c *Conn) ReleaseBuffer() { c.buf = nil }

// Expect reads the next frame and requires it to be of the given kind.
// A KindError frame is surfaced as the remote error it carries.
func (c *Conn) Expect(kind Kind) ([]byte, error) {
	k, payload, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	if k == KindError {
		return nil, fmt.Errorf("transport: remote error: %s", payload)
	}
	if k != kind {
		return nil, fmt.Errorf("transport: expected frame kind %d, got %d", kind, k)
	}
	return payload, nil
}

// WriteError sends a KindError frame carrying msg; best-effort (the
// peer may already be gone).
func (c *Conn) WriteError(msg string) {
	_ = c.WriteFrame(KindError, []byte(msg))
}

// Buffer is an append-only payload builder and a sequential consumer.
// The Put* methods append; the read methods consume from the front and
// return an error on underflow instead of panicking, so a truncated or
// corrupt payload is reported, not a crash.
type Buffer struct {
	B   []byte
	off int
}

// Reset clears the buffer for reuse (keeping capacity).
func (b *Buffer) Reset() { b.B = b.B[:0]; b.off = 0 }

// Load points the buffer's read cursor at p.
func (b *Buffer) Load(p []byte) { b.B = p; b.off = 0 }

// Remaining reports the unconsumed byte count.
func (b *Buffer) Remaining() int { return len(b.B) - b.off }

func (b *Buffer) PutU8(v uint8) { b.B = append(b.B, v) }
func (b *Buffer) PutU32(v uint32) {
	b.B = binary.LittleEndian.AppendUint32(b.B, v)
}
func (b *Buffer) PutU64(v uint64) {
	b.B = binary.LittleEndian.AppendUint64(b.B, v)
}
func (b *Buffer) PutI64(v int64)   { b.PutU64(uint64(v)) }
func (b *Buffer) PutF64(v float64) { b.PutU64(math.Float64bits(v)) }

// PutBytes appends a u32-length-prefixed byte string.
func (b *Buffer) PutBytes(p []byte) {
	b.PutU32(uint32(len(p)))
	b.B = append(b.B, p...)
}

// PutString appends a u32-length-prefixed string.
func (b *Buffer) PutString(s string) {
	b.PutU32(uint32(len(s)))
	b.B = append(b.B, s...)
}

func (b *Buffer) take(n int) ([]byte, error) {
	if b.Remaining() < n {
		return nil, fmt.Errorf("transport: payload underflow: need %d bytes, have %d", n, b.Remaining())
	}
	p := b.B[b.off : b.off+n]
	b.off += n
	return p, nil
}

func (b *Buffer) U8() (uint8, error) {
	p, err := b.take(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (b *Buffer) U32() (uint32, error) {
	p, err := b.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (b *Buffer) U64() (uint64, error) {
	p, err := b.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (b *Buffer) I64() (int64, error) {
	v, err := b.U64()
	return int64(v), err
}

func (b *Buffer) F64() (float64, error) {
	v, err := b.U64()
	return math.Float64frombits(v), err
}

// Bytes consumes a u32-length-prefixed byte string. The returned slice
// aliases the payload.
func (b *Buffer) Bytes() ([]byte, error) {
	n, err := b.U32()
	if err != nil {
		return nil, err
	}
	return b.take(int(n))
}

// String consumes a u32-length-prefixed string.
func (b *Buffer) String() (string, error) {
	p, err := b.Bytes()
	return string(p), err
}

// PutI64s appends a u32-length-prefixed []int64.
func (b *Buffer) PutI64s(v []int64) {
	b.PutU32(uint32(len(v)))
	for _, x := range v {
		b.PutI64(x)
	}
}

// I64s consumes a u32-length-prefixed []int64, reusing dst's capacity.
func (b *Buffer) I64s(dst []int64) ([]int64, error) {
	n, err := b.U32()
	if err != nil {
		return nil, err
	}
	if b.Remaining() < int(n)*8 {
		return nil, fmt.Errorf("transport: payload underflow: %d int64s in %d bytes", n, b.Remaining())
	}
	if cap(dst) < int(n) {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i], _ = b.I64()
	}
	return dst, nil
}

// PutF64s appends a u32-length-prefixed []float64.
func (b *Buffer) PutF64s(v []float64) {
	b.PutU32(uint32(len(v)))
	for _, x := range v {
		b.PutF64(x)
	}
}

// F64s consumes a u32-length-prefixed []float64, reusing dst's capacity.
func (b *Buffer) F64s(dst []float64) ([]float64, error) {
	n, err := b.U32()
	if err != nil {
		return nil, err
	}
	if b.Remaining() < int(n)*8 {
		return nil, fmt.Errorf("transport: payload underflow: %d float64s in %d bytes", n, b.Remaining())
	}
	if cap(dst) < int(n) {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i], _ = b.F64()
	}
	return dst, nil
}

// PutI32s appends a u32-length-prefixed []int32.
func (b *Buffer) PutI32s(v []int32) {
	b.PutU32(uint32(len(v)))
	for _, x := range v {
		b.PutU32(uint32(x))
	}
}

// I32s consumes a u32-length-prefixed []int32, reusing dst's capacity.
func (b *Buffer) I32s(dst []int32) ([]int32, error) {
	n, err := b.U32()
	if err != nil {
		return nil, err
	}
	if b.Remaining() < int(n)*4 {
		return nil, fmt.Errorf("transport: payload underflow: %d int32s in %d bytes", n, b.Remaining())
	}
	if cap(dst) < int(n) {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for i := range dst {
		v, _ := b.U32()
		dst[i] = int32(v)
	}
	return dst, nil
}

// Flow is one uniform-model cross-shard transfer: Amount tasks arriving
// at node Node. It is the record the shard engine's Transport exchanges
// between decide and commit.
type Flow struct {
	Node   int32
	Amount int64
}

// WFlow is one weighted-model cross-shard task transfer: a task of
// weight W arriving at node Dst, stamped with G, the task's
// shard-local departure index (the running count of moves the source
// shard emitted before it in this round). The coordinator turns G
// global by adding the source shard's move base, which reconstructs the
// exact sequential arrival interleaving without any cross-shard state.
type WFlow struct {
	Dst int32
	G   int64
	W   float64
}

// PutFlows appends a u32-length-prefixed []Flow.
func (b *Buffer) PutFlows(v []Flow) {
	b.PutU32(uint32(len(v)))
	for _, f := range v {
		b.PutU32(uint32(f.Node))
		b.PutI64(f.Amount)
	}
}

// Flows consumes a u32-length-prefixed []Flow, reusing dst's capacity.
func (b *Buffer) Flows(dst []Flow) ([]Flow, error) {
	n, err := b.U32()
	if err != nil {
		return nil, err
	}
	if b.Remaining() < int(n)*12 {
		return nil, fmt.Errorf("transport: payload underflow: %d flows in %d bytes", n, b.Remaining())
	}
	if cap(dst) < int(n) {
		dst = make([]Flow, n)
	}
	dst = dst[:n]
	for i := range dst {
		nd, _ := b.U32()
		am, _ := b.I64()
		dst[i] = Flow{Node: int32(nd), Amount: am}
	}
	return dst, nil
}

// PutWFlows appends a u32-length-prefixed []WFlow.
func (b *Buffer) PutWFlows(v []WFlow) {
	b.PutU32(uint32(len(v)))
	for _, f := range v {
		b.PutU32(uint32(f.Dst))
		b.PutI64(f.G)
		b.PutF64(f.W)
	}
}

// WFlows consumes a u32-length-prefixed []WFlow, reusing dst's capacity.
func (b *Buffer) WFlows(dst []WFlow) ([]WFlow, error) {
	n, err := b.U32()
	if err != nil {
		return nil, err
	}
	if b.Remaining() < int(n)*20 {
		return nil, fmt.Errorf("transport: payload underflow: %d wflows in %d bytes", n, b.Remaining())
	}
	if cap(dst) < int(n) {
		dst = make([]WFlow, n)
	}
	dst = dst[:n]
	for i := range dst {
		d, _ := b.U32()
		g, _ := b.I64()
		w, _ := b.F64()
		dst[i] = WFlow{Dst: int32(d), G: g, W: w}
	}
	return dst, nil
}

package transport

import (
	"bytes"
	"math"
	"net"
	"reflect"
	"testing"
)

func TestBufferRoundTrip(t *testing.T) {
	var b Buffer
	b.PutU8(7)
	b.PutU32(0xdeadbeef)
	b.PutU64(1 << 60)
	b.PutI64(-42)
	b.PutF64(math.Pi)
	b.PutF64(math.Float64frombits(0x7ff8000000000001)) // a NaN payload must survive
	b.PutBytes([]byte("payload"))
	b.PutString("name")
	b.PutI64s([]int64{1, -2, 3})
	b.PutF64s([]float64{0.5, -0.25})
	b.PutI32s([]int32{-1, 2, 1 << 30})
	b.PutFlows([]Flow{{Node: 3, Amount: -9}, {Node: 1 << 29, Amount: 5}})
	b.PutWFlows([]WFlow{{Dst: 2, G: 77, W: 0.125}})

	var r Buffer
	r.Load(b.B)
	if v, err := r.U8(); err != nil || v != 7 {
		t.Fatalf("U8 = %d, %v", v, err)
	}
	if v, err := r.U32(); err != nil || v != 0xdeadbeef {
		t.Fatalf("U32 = %x, %v", v, err)
	}
	if v, err := r.U64(); err != nil || v != 1<<60 {
		t.Fatalf("U64 = %d, %v", v, err)
	}
	if v, err := r.I64(); err != nil || v != -42 {
		t.Fatalf("I64 = %d, %v", v, err)
	}
	if v, err := r.F64(); err != nil || v != math.Pi {
		t.Fatalf("F64 = %v, %v", v, err)
	}
	if v, err := r.F64(); err != nil || math.Float64bits(v) != 0x7ff8000000000001 {
		t.Fatalf("NaN F64 = %x, %v", math.Float64bits(v), err)
	}
	if p, err := r.Bytes(); err != nil || !bytes.Equal(p, []byte("payload")) {
		t.Fatalf("Bytes = %q, %v", p, err)
	}
	if s, err := r.String(); err != nil || s != "name" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if v, err := r.I64s(nil); err != nil || !reflect.DeepEqual(v, []int64{1, -2, 3}) {
		t.Fatalf("I64s = %v, %v", v, err)
	}
	if v, err := r.F64s(nil); err != nil || !reflect.DeepEqual(v, []float64{0.5, -0.25}) {
		t.Fatalf("F64s = %v, %v", v, err)
	}
	if v, err := r.I32s(nil); err != nil || !reflect.DeepEqual(v, []int32{-1, 2, 1 << 30}) {
		t.Fatalf("I32s = %v, %v", v, err)
	}
	if v, err := r.Flows(nil); err != nil || !reflect.DeepEqual(v, []Flow{{Node: 3, Amount: -9}, {Node: 1 << 29, Amount: 5}}) {
		t.Fatalf("Flows = %v, %v", v, err)
	}
	if v, err := r.WFlows(nil); err != nil || !reflect.DeepEqual(v, []WFlow{{Dst: 2, G: 77, W: 0.125}}) {
		t.Fatalf("WFlows = %v, %v", v, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestBufferUnderflow(t *testing.T) {
	var r Buffer
	r.Load([]byte{1, 2, 3})
	if _, err := r.U64(); err == nil {
		t.Fatal("U64 on 3 bytes: want error")
	}
	// A declared length larger than the remaining bytes must error, not
	// allocate or panic.
	var b Buffer
	b.PutU32(1 << 20)
	r.Load(b.B)
	if _, err := r.I64s(nil); err == nil {
		t.Fatal("I64s with over-declared length: want error")
	}
	r.Load(b.B)
	if _, err := r.Bytes(); err == nil {
		t.Fatal("Bytes with over-declared length: want error")
	}
	r.Load(b.B)
	if _, err := r.WFlows(nil); err == nil {
		t.Fatal("WFlows with over-declared length: want error")
	}
}

func TestConnFraming(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)

	done := make(chan error, 1)
	go func() {
		if err := ca.WriteFrame(KindRound, []byte("hello")); err != nil {
			done <- err
			return
		}
		done <- ca.WriteFrame(KindDone, nil)
	}()
	kind, payload, err := cb.ReadFrame()
	if err != nil || kind != KindRound || string(payload) != "hello" {
		t.Fatalf("frame 1 = %v %q %v", kind, payload, err)
	}
	kind, payload, err = cb.ReadFrame()
	if err != nil || kind != KindDone || len(payload) != 0 {
		t.Fatalf("frame 2 = %v %q %v", kind, payload, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestConnExpectError(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)

	// One writer goroutine: a Conn is single-writer by contract.
	go func() {
		ca.WriteError("boom")
		_ = ca.WriteFrame(KindVote, nil)
	}()
	if _, err := cb.Expect(KindGrant); err == nil {
		t.Fatal("Expect on KindError frame: want error")
	}
	if _, err := cb.Expect(KindGrant); err == nil {
		t.Fatal("Expect on wrong kind: want error")
	}
}

// TestConnReleaseBuffer: the read buffer keeps the capacity of the
// largest frame read until it is released, so a large first frame (a
// session's config) must not ride along in every later payload.
func TestConnReleaseBuffer(t *testing.T) {
	var stream bytes.Buffer
	c := NewConn(&stream)
	big := make([]byte, 1<<20)
	for _, p := range [][]byte{big, []byte("a"), big, []byte("b")} {
		if err := c.WriteFrame(KindState, p); err != nil {
			t.Fatal(err)
		}
	}
	read := func() []byte {
		t.Helper()
		_, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	read()
	if p := read(); string(p) != "a" || cap(p) < len(big) {
		t.Fatalf("unreleased read: payload %q with capacity %d, want the reused %d-byte buffer", p, cap(p), len(big))
	}
	read()
	c.ReleaseBuffer()
	if p := read(); string(p) != "b" || cap(p) >= len(big) {
		t.Fatalf("released read: payload %q with capacity %d, want a buffer sized to the frame", p, cap(p))
	}
}

package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// JournalSink is the journal writer: it streams admitted batches to
// disk as they happen, rotating to a new segment file whenever the
// current one passes maxBytes (0 never rotates). A daemon that runs for
// days keeps one segment file open and O(1) journal bytes in RAM.
//
// Rotation is checkpoint-anchored: the closing segment ends with a
// "rotate" footer carrying the partial RunResult at the rotation round,
// and the next segment's header records that round as its StartRound.
// The chain is therefore self-verifying — ReadJournalSegments refuses a
// chain whose handoffs disagree or whose tail is missing — and the
// final segment's "result" footer is the same bit-exactness target a
// single-file journal carries.
//
// Segment k of journal path P lives at P (k = 0) or P.k (k > 0).
//
// Append runs on the serve loop goroutine; Close must only be called
// after Server.Stop has returned. The sink does no locking of its own.
type JournalSink struct {
	path     string
	maxBytes int64
	hd       journalHeader

	f       *os.File
	cw      countingWriter
	bw      *bufio.Writer
	enc     *json.Encoder
	seg     int
	entries int
	closed  bool
}

// countingWriter counts bytes as the encoder emits them (ahead of the
// bufio layer, so the rotation check does not depend on flush timing).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// segmentName maps (journal path, segment index) to the on-disk file.
func segmentName(path string, seg int) string {
	if seg == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, seg)
}

// NewJournalSink opens segment 0 at path and writes its header from
// cfg's N, Weighted, Seed, TraceEvery and Meta. maxBytes bounds each
// segment: the first entry that pushes a segment past the bound
// triggers rotation after it is written, so entries are never split.
// maxBytes 0 writes one unrotated file.
func NewJournalSink(path string, maxBytes int64, cfg Config) (*JournalSink, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("serve: journal sink needs a byte bound of at least 0, got %d", maxBytes)
	}
	s := &JournalSink{
		path:     path,
		maxBytes: maxBytes,
		hd: journalHeader{
			Version:    journalVersion,
			N:          cfg.N,
			Weighted:   cfg.Weighted,
			Seed:       cfg.Seed,
			TraceEvery: cfg.TraceEvery,
			Meta:       cfg.Meta,
		},
	}
	if err := s.open(0, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// open starts segment seg whose entries continue after startRound.
func (s *JournalSink) open(seg, startRound int) error {
	f, err := os.Create(segmentName(s.path, seg))
	if err != nil {
		return err
	}
	s.f = f
	s.bw = bufio.NewWriter(f)
	s.cw = countingWriter{w: s.bw}
	s.enc = json.NewEncoder(&s.cw)
	s.seg = seg
	hd := s.hd
	hd.Segment = seg
	hd.StartRound = startRound
	return s.enc.Encode(jsonlLine{Type: "header", Header: &hd})
}

// Append records one admitted batch. partial is the live RunResult
// after the batch's round completed; it becomes the rotation anchor if
// this entry tips the segment over the byte bound. Append flushes
// before it returns — after the rotation, if one opened the next
// segment — so once the serve loop resolves the batch's tickets, the
// segment files hold its line (handed to the OS, not fsynced).
func (s *JournalSink) Append(e Entry, partial core.RunResult) error {
	if s.closed {
		return fmt.Errorf("serve: append to a closed journal sink")
	}
	if err := s.enc.Encode(jsonlLine{Type: "batch", Batch: &e}); err != nil {
		return err
	}
	s.entries++
	if s.maxBytes != 0 && s.cw.n >= s.maxBytes {
		if err := s.enc.Encode(jsonlLine{Type: "rotate", Result: &partial, Next: s.seg + 1}); err != nil {
			return err
		}
		if err := s.closeFile(); err != nil {
			return err
		}
		if err := s.open(s.seg+1, partial.Rounds); err != nil {
			return err
		}
	}
	return s.bw.Flush()
}

func (s *JournalSink) closeFile() error {
	if err := s.bw.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Close writes the final result footer and closes the last segment.
func (s *JournalSink) Close(final *core.RunResult) error {
	if s.closed {
		return nil
	}
	s.closed = true
	if final != nil {
		if err := s.enc.Encode(jsonlLine{Type: "result", Result: final}); err != nil {
			s.f.Close()
			return err
		}
	}
	return s.closeFile()
}

// Segments reports how many segment files the sink has opened so far.
func (s *JournalSink) Segments() int { return s.seg + 1 }

// Entries reports how many batches the sink has recorded.
func (s *JournalSink) Entries() int { return s.entries }

// Path reports the journal path (segment 0's file name).
func (s *JournalSink) Path() string { return s.path }

// ReadJournalSegments reassembles a journal from its segment chain
// starting at path, verifying every rotation handoff: segment k must
// name itself, its StartRound must equal the rotation anchor of segment
// k−1, its entries must stay inside (StartRound, anchor] windows, and
// the chain must end in a "result" footer. A single-file journal is the
// one-segment case, so this reads anything ReadJournal does.
func ReadJournalSegments(path string) (*Journal, error) {
	var j *Journal
	var prev *core.RunResult
	for k := 0; ; k++ {
		f, err := os.Open(segmentName(path, k))
		if err != nil {
			if k == 0 {
				return nil, err
			}
			return nil, fmt.Errorf("serve: journal chain truncated: segment %d handed off to segment %d, but: %w", k-1, k, err)
		}
		sg, perr := parseSegment(f)
		f.Close()
		if perr != nil {
			return nil, fmt.Errorf("serve: journal segment %d: %w", k, perr)
		}
		h := sg.header
		if h.Segment != k {
			return nil, fmt.Errorf("serve: file %s says it is segment %d, want %d", segmentName(path, k), h.Segment, k)
		}
		if k == 0 {
			j = journalFromHeader(h)
		} else {
			if h.Version != j.Version || h.N != j.N || h.Weighted != j.Weighted || h.Seed != j.Seed || h.TraceEvery != j.TraceEvery {
				return nil, fmt.Errorf("serve: journal segment %d header disagrees with segment 0 (version=%d/%d n=%d/%d weighted=%v/%v seed=%d/%d)",
					k, h.Version, j.Version, h.N, j.N, h.Weighted, j.Weighted, h.Seed, j.Seed)
			}
			if h.StartRound != prev.Rounds {
				return nil, fmt.Errorf("serve: journal segment %d starts at round %d, but segment %d rotated at round %d",
					k, h.StartRound, k-1, prev.Rounds)
			}
		}
		for _, e := range sg.entries {
			if e.Round <= h.StartRound {
				return nil, fmt.Errorf("serve: journal segment %d entry at round %d is inside the previous segment's window (≤ %d)",
					k, e.Round, h.StartRound)
			}
		}
		j.Entries = append(j.Entries, sg.entries...)
		if sg.final != nil {
			if err := j.end(sg.final); err != nil {
				return nil, err
			}
			return j, nil
		}
		if sg.partial == nil {
			return nil, fmt.Errorf("serve: journal segment %d has no footer (truncated?)", k)
		}
		if sg.next != k+1 {
			return nil, fmt.Errorf("serve: journal segment %d rotates to segment %d, want %d", k, sg.next, k+1)
		}
		if n := len(sg.entries); n > 0 && sg.entries[n-1].Round > sg.partial.Rounds {
			return nil, fmt.Errorf("serve: journal segment %d entry at round %d is after its rotation anchor %d",
				k, sg.entries[n-1].Round, sg.partial.Rounds)
		}
		prev = sg.partial
	}
}

package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"

	"repro/internal/core"
)

// CountEvent is a sparse per-node count entry in a journaled batch.
type CountEvent struct {
	Node  int   `json:"node"`
	Count int64 `json:"count"`
}

// WeightEvent is the ordered weight-arrival list a node received in one
// batch; order is application order and must be preserved for replay.
type WeightEvent struct {
	Node    int       `json:"node"`
	Weights []float64 `json:"weights"`
}

// Entry is one round's admitted batch in sparse form. Rounds with no
// events have no entry.
type Entry struct {
	Round            int           `json:"round"`
	Arrivals         []CountEvent  `json:"arrivals,omitempty"`
	Departures       []CountEvent  `json:"departures,omitempty"`
	WeightArrivals   []WeightEvent `json:"weightArrivals,omitempty"`
	WeightDepartures []CountEvent  `json:"weightDepartures,omitempty"`
}

// Journal is the admitted-batch ledger of a serve-mode run: everything
// needed to replay the run offline through core.Drive — the run
// parameters (seed, trace cadence, total rounds) plus the per-round
// event batches — and, as a footer, the RunResult the live loop
// observed, so replays can assert bit-exactness. Meta carries opaque
// daemon setup (graph family, placement, engine) that cmd/lbd uses to
// rebuild the initial state; package serve never interprets it.
type Journal struct {
	Version    int               `json:"version"`
	N          int               `json:"n"`
	Weighted   bool              `json:"weighted"`
	Seed       uint64            `json:"seed"`
	TraceEvery int               `json:"traceEvery"`
	Meta       map[string]string `json:"meta,omitempty"`
	Rounds     int               `json:"rounds"`
	Entries    []Entry           `json:"-"`
	Result     *core.RunResult   `json:"-"`
}

// journalVersion is the version journals are written with. The format
// is the same in both versions; the number records the trajectory a
// weighted run follows. Version 2 marks the round-end rebuild of the
// cached weight sums (core.WeightRecomputeEvery); version 1 journals
// were written by builds that rebuilt them at the exact update that
// crossed the threshold. The two schedules agree bit for bit on every
// run with fewer weighted updates than the threshold, so both versions
// read, and Replay refuses a weighted version 1 journal only when its
// run reached the threshold (checkSchedule).
const journalVersion = 2

// entryFromBatch converts a taken group's dense batch to sparse form.
// Touched lists are sorted so the journal is canonical (node-ascending)
// regardless of submission interleaving; the dense reconstruction at
// replay is order-insensitive for counts and keeps each node's weight
// list verbatim. The weight lists alias the batch: the sink encodes the
// entry before the batch is recycled.
func entryFromBatch(round int, pb *pendingBatch) Entry {
	e := Entry{Round: round}
	if len(pb.tA) > 0 {
		slices.Sort(pb.tA)
		e.Arrivals = make([]CountEvent, len(pb.tA))
		for k, i := range pb.tA {
			e.Arrivals[k] = CountEvent{Node: int(i), Count: pb.batch.Arrivals[i]}
		}
	}
	if len(pb.tD) > 0 {
		slices.Sort(pb.tD)
		e.Departures = make([]CountEvent, len(pb.tD))
		for k, i := range pb.tD {
			e.Departures[k] = CountEvent{Node: int(i), Count: pb.batch.Departures[i]}
		}
	}
	if len(pb.tWA) > 0 {
		slices.Sort(pb.tWA)
		e.WeightArrivals = make([]WeightEvent, len(pb.tWA))
		for k, i := range pb.tWA {
			e.WeightArrivals[k] = WeightEvent{
				Node:    int(i),
				Weights: pb.batch.WeightArrivals[i],
			}
		}
	}
	if len(pb.tWD) > 0 {
		slices.Sort(pb.tWD)
		e.WeightDepartures = make([]CountEvent, len(pb.tWD))
		for k, i := range pb.tWD {
			e.WeightDepartures[k] = CountEvent{Node: int(i), Count: pb.batch.WeightDepartures[i]}
		}
	}
	return e
}

// replayCursor is the shared state behind the events closure. Replay
// inspects it after the drive: a skipped entry (the driver asked for a
// later round while an earlier entry was still pending) or a leftover
// entry (a round the drive never reached) means the replay did NOT
// apply the journaled workload, and the run must fail loudly rather
// than return a silently-diverged result.
type replayCursor struct {
	idx int
	err error
}

// events returns a core.RunOpts.Events function replaying the journaled
// batches: a pure function of the round number backed by one reused
// dense batch (valid until the next call, exactly how Drive consumes
// it). Entries must be round-ascending, which validate guarantees. The
// closure's signature cannot surface errors, so a journal whose entries
// the driver jumps past is only reported through the cursor.
func (j *Journal) events() (*replayCursor, func(round uint64) *core.EventBatch) {
	pb := newPendingBatch(j.N)
	cur := &replayCursor{}
	return cur, func(round uint64) *core.EventBatch {
		for cur.idx < len(j.Entries) && uint64(j.Entries[cur.idx].Round) < round {
			if cur.err == nil {
				cur.err = fmt.Errorf("serve: journal entry for round %d was never applied (driver skipped to round %d)",
					j.Entries[cur.idx].Round, round)
			}
			cur.idx++
		}
		if cur.idx >= len(j.Entries) || uint64(j.Entries[cur.idx].Round) != round {
			return nil
		}
		e := j.Entries[cur.idx]
		cur.idx++
		pb.reset()
		for _, a := range e.Arrivals {
			pb.add(Op{Kind: OpArrive, Node: a.Node, Count: a.Count})
		}
		for _, d := range e.Departures {
			pb.add(Op{Kind: OpComplete, Node: d.Node, Count: d.Count})
		}
		for _, wa := range e.WeightArrivals {
			for _, w := range wa.Weights {
				pb.add(Op{Kind: OpArriveWeighted, Node: wa.Node, Weight: w})
			}
		}
		for _, d := range e.WeightDepartures {
			pb.add(Op{Kind: OpCompleteWeighted, Node: d.Node, Count: d.Count})
		}
		return &pb.batch
	}
}

// Replay drives eng through the journaled run and returns the replayed
// RunResult. Bit-exactness against Journal.Result is the serve-mode
// determinism contract: the engine must be built from the same initial
// state the live run started from (Journal.Meta tells the owner how).
// Replay fails loudly on journals the drive could not honor — entries
// skipped or never reached — and, when the journal carries its live
// result footer, on any divergence from it.
func Replay[S core.State](j *Journal, eng core.Engine[S]) (core.RunResult, error) {
	if j.Rounds <= 0 {
		return core.RunResult{}, fmt.Errorf("serve: journal records %d rounds; nothing to replay", j.Rounds)
	}
	if err := j.checkSchedule(); err != nil {
		return core.RunResult{}, err
	}
	cur, events := j.events()
	res, err := core.Drive[S](eng, nil, core.RunOpts{
		MaxRounds:  j.Rounds,
		Seed:       j.Seed,
		TraceEvery: j.TraceEvery,
		Events:     events,
	})
	if err != nil {
		return res, err
	}
	if cur.err != nil {
		return res, cur.err
	}
	if cur.idx != len(j.Entries) {
		return res, fmt.Errorf("serve: replay applied %d of %d journal entries; entries from round %d on were never reached",
			cur.idx, len(j.Entries), j.Entries[cur.idx].Round)
	}
	if j.Result != nil && !reflect.DeepEqual(res, *j.Result) {
		return res, fmt.Errorf("serve: replay diverged from the journaled result:\n  live:   rounds=%d moves=%d ledger=%+v\n  replay: rounds=%d moves=%d ledger=%+v",
			j.Result.Rounds, j.Result.Moves, j.Result.Ledger, res.Rounds, res.Moves, res.Ledger)
	}
	return res, nil
}

// checkSchedule refuses a weighted version 1 journal whose result
// footer counts (moves, arrived and departed tasks) reach the
// weight-recompute threshold: its run rebuilt the cached weight sums
// mid-round, where this build rebuilds them at round ends, so a replay
// could diverge from the recorded trajectory.
func (j *Journal) checkSchedule() error {
	if !j.Weighted || j.Version >= 2 || j.Result == nil {
		return nil
	}
	updates := j.Result.Moves + j.Result.Ledger.ArrivedTasks + j.Result.Ledger.DepartedTasks
	if !core.RecomputeDue(updates) {
		return nil
	}
	return fmt.Errorf("serve: weighted journal version 1 records %d updates, at or past the weight-recompute threshold of %d: "+
		"it was written under the mid-round recompute schedule, and this build rebuilds the cached weight sums at round ends (version 2), "+
		"so the replay would not be bit for bit", updates, core.WeightRecomputeEvery)
}

// jsonl line wrappers: one header object, one line per entry, one
// footer — "result" closes the run, "rotate" hands off to the next
// segment file of a rotated journal. The wrapper type tags keep the
// stream self-describing and forward-extensible.
type jsonlLine struct {
	Type   string          `json:"type"`
	Header *journalHeader  `json:"header,omitempty"`
	Batch  *Entry          `json:"batch,omitempty"`
	Result *core.RunResult `json:"result,omitempty"`
	Next   int             `json:"next,omitempty"`
}

// journalHeader is the Journal's scalar prefix (everything but entries
// and result). A sink writes Rounds 0, since the count is unknown when
// a segment opens; journals of earlier builds, written once at
// shutdown, record the live count there. Both readers take the count
// from the result footer. Segment and StartRound are zero in
// single-file journals; a rotated segment k > 0 records its index and
// the round count the previous segment's rotation footer anchored at,
// so the chain walk can verify the handoff.
type journalHeader struct {
	Version    int               `json:"version"`
	N          int               `json:"n"`
	Weighted   bool              `json:"weighted"`
	Seed       uint64            `json:"seed"`
	TraceEvery int               `json:"traceEvery"`
	Rounds     int               `json:"rounds"`
	Meta       map[string]string `json:"meta,omitempty"`
	Segment    int               `json:"segment,omitempty"`
	StartRound int               `json:"startRound,omitempty"`
}

// parsedSegment is one JSONL segment stream: header, entries, and at
// most one footer — final ("result") or rotation handoff ("rotate").
type parsedSegment struct {
	header  *journalHeader
	entries []Entry
	final   *core.RunResult
	partial *core.RunResult
	next    int
}

// parseSegment reads one segment stream. Structural errors (lines out
// of protocol order, unknown types, bad versions) surface here; journal
// semantics (round ordering, node ranges, footer presence) are the
// caller's validate step once the full chain is assembled.
func parseSegment(r io.Reader) (*parsedSegment, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	sg := &parsedSegment{}
	for {
		var line jsonlLine
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("serve: journal parse: %w", err)
		}
		if sg.final != nil || sg.partial != nil {
			return nil, fmt.Errorf("serve: journal line after the %q footer", map[bool]string{true: "result", false: "rotate"}[sg.final != nil])
		}
		switch line.Type {
		case "header":
			if sg.header != nil {
				return nil, fmt.Errorf("serve: duplicate journal header")
			}
			if line.Header == nil {
				return nil, fmt.Errorf("serve: header line without header body")
			}
			if v := line.Header.Version; v < 1 || v > journalVersion {
				return nil, fmt.Errorf("serve: journal version %d, want 1 to %d", v, journalVersion)
			}
			sg.header = line.Header
		case "batch":
			if sg.header == nil {
				return nil, fmt.Errorf("serve: batch line before header")
			}
			if line.Batch == nil {
				return nil, fmt.Errorf("serve: batch line without batch body")
			}
			sg.entries = append(sg.entries, *line.Batch)
		case "result":
			if sg.header == nil {
				return nil, fmt.Errorf("serve: result line before header")
			}
			if line.Result == nil {
				return nil, fmt.Errorf("serve: result line without result body")
			}
			sg.final = line.Result
		case "rotate":
			if sg.header == nil {
				return nil, fmt.Errorf("serve: rotate line before header")
			}
			if line.Result == nil {
				return nil, fmt.Errorf("serve: rotate line without its partial result")
			}
			if line.Next <= 0 {
				return nil, fmt.Errorf("serve: rotate line names no next segment")
			}
			sg.partial = line.Result
			sg.next = line.Next
		default:
			return nil, fmt.Errorf("serve: unknown journal line type %q", line.Type)
		}
	}
	if sg.header == nil {
		return nil, fmt.Errorf("serve: empty journal")
	}
	return sg, nil
}

// journalFromHeader builds the Journal scaffold a header describes.
func journalFromHeader(h *journalHeader) *Journal {
	return &Journal{
		Version:    h.Version,
		N:          h.N,
		Weighted:   h.Weighted,
		Seed:       h.Seed,
		TraceEvery: h.TraceEvery,
		Meta:       h.Meta,
	}
}

// end closes j on its result footer, which sets the round count, and
// validates the whole journal.
func (j *Journal) end(final *core.RunResult) error {
	if final == nil {
		return fmt.Errorf("serve: journal has no result footer (truncated?)")
	}
	j.Result, j.Rounds = final, final.Rounds
	return j.validate()
}

// ReadJournal parses a single-segment JSONL journal stream, as an
// unrotated sink writes it. A stream that ends in a rotation
// footer is refused: the rest of the run lives in sibling files, so it
// must be read through ReadJournalSegments, which can walk the chain.
func ReadJournal(r io.Reader) (*Journal, error) {
	sg, err := parseSegment(r)
	if err != nil {
		return nil, err
	}
	if sg.partial != nil {
		return nil, fmt.Errorf("serve: journal rotates to segment %d; read it by path so the chain can be walked", sg.next)
	}
	if sg.header.Segment != 0 {
		return nil, fmt.Errorf("serve: stream is journal segment %d, not the start of the chain", sg.header.Segment)
	}
	j := journalFromHeader(sg.header)
	j.Entries = sg.entries
	if err := j.end(sg.final); err != nil {
		return nil, err
	}
	return j, nil
}

// validate rejects journal streams a live run cannot have written:
// entries out of round order or beyond the recorded horizon, and events
// naming nodes outside the instance. Accepting these would make Replay
// silently produce a different run instead of failing.
func (j *Journal) validate() error {
	nodes := func(k int, evs []CountEvent, kind string) error {
		for _, e := range evs {
			if e.Node < 0 || e.Node >= j.N {
				return fmt.Errorf("serve: journal entry %d: %s node %d outside [0, %d)", k, kind, e.Node, j.N)
			}
			if e.Count < 0 {
				return fmt.Errorf("serve: journal entry %d: %s count %d at node %d is negative", k, kind, e.Count, e.Node)
			}
		}
		return nil
	}
	prev := 0
	for k, e := range j.Entries {
		if e.Round <= prev {
			return fmt.Errorf("serve: journal entry %d at round %d is not after round %d", k, e.Round, prev)
		}
		if e.Round > j.Rounds {
			return fmt.Errorf("serve: journal entry %d at round %d is beyond the recorded %d rounds", k, e.Round, j.Rounds)
		}
		prev = e.Round
		if err := nodes(k, e.Arrivals, "arrival"); err != nil {
			return err
		}
		if err := nodes(k, e.Departures, "departure"); err != nil {
			return err
		}
		if err := nodes(k, e.WeightDepartures, "weight-departure"); err != nil {
			return err
		}
		for _, wa := range e.WeightArrivals {
			if wa.Node < 0 || wa.Node >= j.N {
				return fmt.Errorf("serve: journal entry %d: weight-arrival node %d outside [0, %d)", k, wa.Node, j.N)
			}
		}
	}
	return nil
}

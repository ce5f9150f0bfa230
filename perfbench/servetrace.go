package main

import (
	"fmt"
	"path/filepath"
)

// partsTolerance is how far the traced parts may sum from the traced
// total before the check fails. The parts leave out only a few
// bookkeeping statements between the timed calls.
const partsTolerance = 0.05

// serveTrace accumulates the traced serve window over its daemons:
// spans, the parts of admission latency and the per-layer sums.
type serveTrace struct {
	tr tracer
	// Σ over submissions, ns.
	nSub, total, queue, apply, step, tail float64
	// Σ over rounds, ns.
	nRounds, applyR, stepR, snapR, decR, comR, tailR float64
	submit, queueHist                                hist
	// Hint reads whose scan could be matched, and their phase sums.
	paired, waitS, scanS, sortS float64
	reads                       int
	dropped                     int64
}

// add folds one daemon's traced run into the accumulator. Group and
// hint times are relative to the run's start (lr.base on the epoch
// clock), round times to the epoch. Span ids are daemon·2³² + round
// (admissions) or daemon·2³² + read index (hints).
func (t *serveTrace) add(inst *serveInstance, lr *loadRun, daemon int) {
	log := inst.traced.log
	base := lr.base
	t.submit.merge(&lr.submitHist)
	t.queueHist.merge(&lr.queueHist)
	t.dropped += inst.traced.dropped
	for _, g := range lr.stats {
		if g.round == 0 || g.round >= maxTracedRounds || g.count == 0 {
			continue
		}
		rr := log[g.round]
		c := float64(g.count)
		seen := g.seen + base
		due := g.sumDue + c*float64(base)
		t.nSub += c
		t.nRounds++
		t.total += c*float64(seen) - due
		t.queue += c*float64(rr.applyStart) - due
		t.apply += c * float64(rr.applyEnd-rr.applyStart)
		t.step += c * float64(rr.stepEnd-rr.stepStart)
		t.tail += c * float64(seen-rr.stepEnd)
		t.applyR += float64(rr.applyEnd - rr.applyStart)
		t.stepR += float64(rr.stepEnd - rr.stepStart)
		t.snapR += float64(rr.snapshot)
		t.decR += float64(rr.decide)
		t.comR += float64(rr.commit)
		t.tailR += float64(seen - rr.stepEnd)

		id := uint64(daemon)<<32 | g.round
		root := t.tr.add("serve.admission", g.firstDue+base, seen, -1, id)
		t.tr.add("serve.submit", g.submit[0], g.submit[1], root, id)
		t.tr.add("serve.queue", g.firstDue+base, rr.applyStart, root, id)
		t.tr.add("shard.apply", rr.applyStart, rr.applyEnd, root, id)
		s := t.tr.add("shard.step", rr.stepStart, rr.stepEnd, root, id)
		at := rr.stepStart
		for _, ph := range []struct {
			name string
			d    int64
		}{{"shard.snapshot", rr.snapshot}, {"shard.decide", rr.decide}, {"shard.commit", rr.commit}} {
			t.tr.add(ph.name, at, at+ph.d, s, id)
			at += ph.d
		}
		t.tr.add("serve.tail", rr.stepEnd, seen, root, id)
	}

	if len(lr.hints) == 0 {
		return
	}
	inst.scans.mu.Lock()
	scans := append([][2]int64(nil), inst.scans.scans...)
	inst.scans.mu.Unlock()
	t.reads += len(lr.hints)
	for j, h := range lr.hints {
		if j >= len(scans) || !h.ok {
			continue
		}
		due, done := h.due+base, h.done+base
		sc := scans[j]
		if sc[0] < due || sc[1] > done {
			continue // reads overlapped and the scans cannot be matched by order
		}
		t.paired++
		t.waitS += float64(sc[0] - due)
		t.scanS += float64(sc[1] - sc[0])
		t.sortS += float64(done - sc[1])
		id := uint64(daemon)<<32 | uint64(j)
		root := t.tr.add("serve.hint", due, done, -1, id)
		t.tr.add("serve.hint_wait", due, sc[0], root, id)
		t.tr.add("serve.hint_scan", sc[0], sc[1], root, id)
		t.tr.add("serve.hint_sort", sc[1], done, root, id)
	}
}

// finish reports the per-layer metrics, checks that the parts add up
// to the admission latency, and writes the spans.
func (t *serveTrace) finish(w *windowOut, dir string, admit *hist) {
	perRound := func(v float64) float64 { return ms(v / max(t.nRounds, 1)) }
	n := int64(t.nRounds)
	w.l("serve.submit_ns", "ns", t.submit.mean(), t.submit.total(), fmt.Sprintf("mean; p99 %.0f ns", t.submit.quantile(99)))
	w.l("serve.queue_ms_p50", "ms", ms(t.queueHist.quantile(50)), t.queueHist.total(), "due time → ApplyEvents start of the admitting round")
	w.l("serve.queue_ms_p99", "ms", ms(t.queueHist.quantile(99)), t.queueHist.total(), fmt.Sprintf("%d beyond", beyond(99, t.queueHist.total())))
	w.l("shard.apply_ms", "ms", perRound(t.applyR), n, "mean per round")
	w.l("shard.step_ms", "ms", perRound(t.stepR), n, "mean per round")
	w.l("shard.snapshot_ms", "ms", perRound(t.snapR), n, "mean per round")
	w.l("shard.decide_ms", "ms", perRound(t.decR), n, "mean per round")
	w.l("shard.commit_ms", "ms", perRound(t.comR), n, "mean per round")
	w.l("serve.tail_ms", "ms", perRound(t.tailR), n, "Step return → group seen resolved, mean per round")
	parts := t.queue + t.apply + t.step + t.tail
	share := parts / t.total
	w.l("trace.parts_share", "fraction", share, int64(t.nSub), "(queue + apply + step + tail) ÷ admission latency, over submissions")
	w.check("traced parts add up", t.nSub > 0 && abs(share-1) <= partsTolerance,
		"queue %.4f + apply %.4f + step %.4f + tail %.4f = %.4f ms vs admission %.4f ms (mean per submission, %d submissions; admit mean %.4f ms)",
		ms(t.queue/t.nSub), ms(t.apply/t.nSub), ms(t.step/t.nSub), ms(t.tail/t.nSub), ms(parts/t.nSub), ms(t.total/t.nSub), int64(t.nSub), ms(admit.mean()))
	if t.dropped > 0 {
		w.notes = append(w.notes, fmt.Sprintf("round log full: %d rounds not traced", t.dropped))
	}
	if t.reads > 0 {
		p := int64(t.paired)
		note := fmt.Sprintf("mean over %d of %d reads", p, t.reads)
		w.l("serve.hint_wait_ms", "ms", ms(t.waitS/max(t.paired, 1)), p, note+"; due → first NodeLoad")
		w.l("serve.hint_scan_ms", "ms", ms(t.scanS/max(t.paired, 1)), p, note+"; first → last NodeLoad")
		w.l("serve.hint_sort_ms", "ms", ms(t.sortS/max(t.paired, 1)), p, note+"; last NodeLoad → ServeHTTP return")
	}
	w.notes = append(w.notes, selfNotes(t.tr.spans)...)
	path := filepath.Join(dir, "spans.jsonl")
	if err := t.tr.write(path); err != nil {
		w.check("spans written", false, "%v", err)
	} else {
		w.notes = append(w.notes, fmt.Sprintf("%d spans written to %s", len(t.tr.spans), path))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

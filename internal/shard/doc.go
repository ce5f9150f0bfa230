// Package shard is the large-scale execution engine: the concurrent
// counterpart of the sequential reference in package core, built for
// instances of 10⁵–10⁷ nodes where the reference's pointer-heavy state
// and per-round allocations dominate.
//
// Three layers:
//
//   - Data: the engine operates on the flat CSR view of the network
//     (graph.CSR — []int32 offsets/neighbors) and flat []int64 counts /
//     []float64 loads vectors. For the Table-1 families the CSR arrays
//     are constructed directly (graph.RingCSR etc.), so a million-node
//     instance never materializes an edge list or edge map.
//
//   - Partition: nodes are split into P contiguous shards, either by
//     node count (Contiguous) or by degree mass (DegreeBalanced), with
//     the cross-shard boundary precomputed: which nodes have external
//     neighbors, and how many edges cross from shard s to shard d. The
//     cross-edge counts pre-size the inter-shard flow buffers so the
//     decide loop never grows a slice.
//
//   - Execution: each round runs in phases with barriers between
//     them, on the phase pool both engines embed (phasePool) — (1)
//     every shard refreshes its slice of the round-start load
//     snapshot; (2) every shard evaluates its nodes' DecideNode calls
//     against it, accumulating migrations into a dense local delta for
//     in-shard destinations and into per-destination-shard flow lists,
//     outFlows[s][d], for cross-shard ones; (3) every shard commits
//     the deltas addressed to it — its own dense buffer plus the lists
//     outFlows[src][s] of every other shard, read in place. A node's
//     counts are written only by its owning shard's committer, so
//     there are no cross-shard data races by construction, and the hot
//     path performs no allocations (worker streams are derived with
//     rng.SplitTo into per-worker scratch, and protocol sampling runs
//     through rng.EqualSplitInto).
//
// Determinism: node i's round-r randomness is drawn from the stream
// base.At(r, i) — the same keying contract every other engine pins —
// and delta commit is integer addition, which is order-independent. A
// shard.Engine trajectory is therefore bit-identical to the sequential
// engine's for any shard count, any worker count and either partition
// strategy; the parity tests demand exactly that, statically and under
// dynamic workloads, for P ∈ {1, 2, 7}.
//
// WeightedEngine extends the same architecture to weighted tasks
// (Algorithm 2). The task weights live in one contiguous pool per
// shard with per-node offsets; the decide phase never reads them —
// Algorithm 2's migration law depends only on loads and the cached
// node-weight sums (core.WeightedFlatProtocol), which is the paper's
// exchangeability property turned into a storage layout. The commit
// phase replays, per node, the exact operation sequence of the
// sequential core.ApplyMoves — swap-deletes, append order and per-move
// float64 weight-sum updates — by merging each node's incoming tasks
// and own removals along the round's global move timeline, and ends the
// round as ApplyMoves does: once the update count reaches
// core.WeightRecomputeEvery, a parallel per-shard refold rebuilds the
// cached sums. Weighted
// trajectories, traces, ledgers and final task multisets are therefore
// bit-identical to core.RunWeighted as well; see DESIGN.md ("Weighted
// tasks at scale") for the replay argument.
//
// The cluster layer (cluster.go, worker.go) runs the same engines
// across processes: a coordinator and one worker per shard. A worker
// holds only its own rows and its halo, in a local id space, on a
// window partition and a window core.System that carries the
// instance-wide values the decide kernels read. Its engine is the shard
// kernel alone, with no phase pool: the worker runs its shard's phases
// itself, and its frames read and write the engine's loads and flow
// lists in place; see DESIGN.md ("What a worker holds").
package shard

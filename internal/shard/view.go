package shard

// LoadView is the decide phase's window onto a round's load snapshot.
// The paper's protocols are strictly local — node i's decision reads
// only loads[i] and loads[j] for neighbors j — so a shard never needs
// the full vector: its own rows plus its halo slots (the out-of-shard
// neighbor closure, Partition.Halo) cover every index its decide can
// touch.
//
// The view is one dense vector over an engine's id space, so protocol
// code keeps plain []float64 indexing (the DecideNode and
// DecideNodeFlat signatures) with zero indirection cost. Ids [0, own) are
// rows the engine's snapshot phase refreshes; ids [own, len) are halo
// slots that FillHalo refreshes. The two owners differ in size only:
//
//   - In-process engines hold the whole instance in global ids: the view
//     aliases the engine's n-length loads vector and every id is a row
//     (own = n, no halo), refreshed each round by the snapshot phase of
//     its shard, so single-process behavior is bit-for-bit unchanged.
//   - A cluster worker holds its own rows and halo only, in its local id
//     space (own rows 0…m−1, halo slots m…m+h−1): the view has m + h
//     entries, its snapshot refreshes the rows and the coordinator's
//     KindHaloLoads frame the halo. Nothing in it is indexed by n.
type LoadView struct {
	dense []float64
	own   int
}

// newLoadView wraps an engine's load vector as a view whose first own
// ids are rows. The slice is aliased, not copied: snapshot-phase writes
// through the engine are immediately visible to readers of the view.
func newLoadView(loads []float64, own int) LoadView { return LoadView{dense: loads, own: own} }

// Dense exposes the backing vector for the decide kernels (DecideNode
// and DecideNodeFlat receive the whole vector but read only the
// deciding node's own and neighbor entries — the same locality contract
// the view formalizes). Only entries of the reading shard's own rows
// and halo slots are guaranteed fresh.
func (v LoadView) Dense() []float64 { return v.dense }

// FillHalo writes a halo frame into the view: vals[k] is the load of
// halo slot k, per the partition's deterministic slot order. vals must
// hold one load per halo slot.
func (v LoadView) FillHalo(vals []float64) { copy(v.dense[v.own:], vals) }

// Gather packs the loads of the given ids (boundary lists) into dst in
// order, growing it as needed, and returns it.
func (v LoadView) Gather(nodes []int32, dst []float64) []float64 {
	dst = dst[:0]
	for _, j := range nodes {
		dst = append(dst, v.dense[j])
	}
	return dst
}

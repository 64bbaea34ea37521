package dist

// PhaseComm meters one class of exchange: how many point-to-point
// messages crossed the simulated network and how many payload bytes they
// carried. Every byte sent is received exactly once, so the two totals
// agree in aggregate; both are kept because per-rank accounting (a future
// per-rank report) distinguishes them.
type PhaseComm struct {
	BytesSent     int64
	BytesReceived int64
	Messages      int64
}

// Comm is the communication bill of one distributed run: aggregate
// totals plus the per-phase breakdown the scaling analysis needs to see
// where the volume comes from.
type Comm struct {
	BytesSent     int64
	BytesReceived int64
	Messages      int64

	// Measured* are actual bytes-on-the-wire totals from the framed TCP
	// transport (frame headers included), in contrast to the modeled
	// figures above, which price the exchanges analytically. Zero for
	// simulated (in-process) runs; populated by RunCluster and the
	// cluster-backed serving path. The two columns land side by side in
	// dist_comm_sweep.csv so the model can be checked against reality.
	MeasuredBytesSent     int64
	MeasuredBytesReceived int64
	MeasuredMessages      int64
	// Failovers counts remote generation rounds the root redid locally
	// after a worker became unreachable — slot determinism makes the
	// fallback byte-identical, so this is a health signal, not a
	// correctness one.
	Failovers int64

	// ThetaExchange covers the θ-estimation control traffic: the root
	// broadcasting each round's sample budget and the ranks allreducing
	// their round totals (pool size, member count).
	ThetaExchange PhaseComm
	// CounterReduce covers the reduction of per-rank occurrence counters
	// to the root — a dense n×8-byte vector per non-root rank per round.
	// It prices the MPI allreduce a real deployment would run; the wire
	// carries no counter (the root folds the gathered sets into its own),
	// so the measured columns have no share of it.
	CounterReduce PhaseComm
	// SetGather covers the gather of serialized RRR sets to the root for
	// Find_Most_Influential_Set. This is the data-dependent term: its
	// volume tracks the sampled coverage, not just n and the rank count.
	SetGather PhaseComm
	// SeedBroadcast covers the root broadcasting each round's selected
	// seed set and coverage so every rank can evaluate the stopping rule.
	SeedBroadcast PhaseComm
	// GraphBroadcast covers rank 0 shipping the input graph to the other
	// ranks when the run starts from a snapshot (RunSnapshot): one
	// message per non-root rank, each carrying the snapshot payload.
	GraphBroadcast PhaseComm
}

// record books messages carrying totalBytes of payload against a phase
// and the aggregate totals.
func (c *Comm) record(phase *PhaseComm, messages, totalBytes int64) {
	phase.Messages += messages
	phase.BytesSent += totalBytes
	phase.BytesReceived += totalBytes
	c.Messages += messages
	c.BytesSent += totalBytes
	c.BytesReceived += totalBytes
}

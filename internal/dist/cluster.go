package dist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/wire"
)

// ClusterConfig places one process in a networked cluster: Rank is its
// position, Peers[i] is the wire address (host:port) where rank i's
// worker listens. Rank 0 is the root — it runs the driver (θ estimation,
// selection, the HTTP front-end) and dials Peers[1:]; every other rank
// listens on Peers[Rank] and serves generation rounds. This is the one
// validated struct the CLIs, the facade, and the library share.
type ClusterConfig struct {
	Rank  int
	Peers []string
}

// Ranks returns the cluster size.
func (c ClusterConfig) Ranks() int { return len(c.Peers) }

// Validate checks the shape: at least one peer, a rank within range, and
// non-empty distinct addresses.
func (c ClusterConfig) Validate() error {
	if len(c.Peers) == 0 {
		return fmt.Errorf("dist: cluster needs at least one peer address")
	}
	if c.Rank < 0 || c.Rank >= len(c.Peers) {
		return fmt.Errorf("dist: rank %d out of range for %d peers", c.Rank, len(c.Peers))
	}
	seen := make(map[string]int, len(c.Peers))
	for i, p := range c.Peers {
		if p == "" {
			return fmt.Errorf("dist: peer %d has an empty address", i)
		}
		if j, dup := seen[p]; dup {
			return fmt.Errorf("dist: peers %d and %d share address %q", j, i, p)
		}
		seen[p] = i
	}
	return nil
}

// ClusterOptions tunes the transport behaviour of a networked cluster.
type ClusterOptions struct {
	// DialTimeout bounds one TCP connect attempt.
	DialTimeout time.Duration
	// FrameTimeout bounds each frame write and each reply read on the
	// root's connections. It must cover a worker's whole generation
	// round, so it is a compute budget, not a network RTT.
	FrameTimeout time.Duration
	// DialRetries is how many times a failed dial or broken exchange is
	// retried (with Backoff doubling between attempts) before the caller
	// falls back to local generation.
	DialRetries int
	// Backoff is the initial retry delay.
	Backoff time.Duration
}

// DefaultClusterOptions returns transport settings suited to LAN and
// loopback clusters.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		DialTimeout:  5 * time.Second,
		FrameTimeout: 2 * time.Minute,
		DialRetries:  3,
		Backoff:      100 * time.Millisecond,
	}
}

func (o ClusterOptions) normalized() ClusterOptions {
	def := DefaultClusterOptions()
	if o.DialTimeout <= 0 {
		o.DialTimeout = def.DialTimeout
	}
	if o.FrameTimeout <= 0 {
		o.FrameTimeout = def.FrameTimeout
	}
	if o.DialRetries < 0 {
		o.DialRetries = def.DialRetries
	}
	if o.Backoff <= 0 {
		o.Backoff = def.Backoff
	}
	return o
}

// sharedGraph is a graph the root has serialized for broadcast: its
// content-derived wire name and the snapshot bytes shipped to workers.
type sharedGraph struct {
	name string
	snap []byte
}

// peerConn is the root's connection to one worker rank: a mutex-guarded
// wire.Conn plus the set of graph names already shipped over it, which
// resets when the connection is re-established.
type peerConn struct {
	addr string

	mu      sync.Mutex
	conn    *wire.Conn
	shipped map[string]bool
}

// Cluster is the root side of a networked distributed run: one framed
// TCP connection per non-root rank, a shared bytes-on-the-wire meter,
// and the graph broadcast cache. Methods are safe for concurrent use;
// calls to distinct ranks proceed in parallel (one lock per peer).
type Cluster struct {
	cfg   ClusterConfig
	opt   ClusterOptions
	meter wire.Meter
	peers []*peerConn // index 1..Ranks-1; peers[0] is nil (the root itself)

	// failovers counts remote chunks the cluster's slot generators redid
	// locally — serving pools and RunCluster runs alike (a run also counts
	// its own in Comm.Failovers).
	failovers atomic.Int64

	mu     sync.Mutex
	shared map[*graph.Graph]*sharedGraph
}

// Connect establishes the root's connections to every worker rank in
// cfg.Peers[1:], performing the protocol handshake on each. cfg.Rank
// must be 0. A cluster of one rank is valid and holds no connections.
// Workers that are down at Connect time fail the call; workers that die
// later trigger reconnect-with-backoff and, if that fails, per-round
// local failover.
func Connect(cfg ClusterConfig, opt ClusterOptions) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rank != 0 {
		return nil, fmt.Errorf("dist: Connect is the root's call; rank %d should ServeRank", cfg.Rank)
	}
	c := &Cluster{
		cfg:    cfg,
		opt:    opt.normalized(),
		peers:  make([]*peerConn, len(cfg.Peers)),
		shared: make(map[*graph.Graph]*sharedGraph),
	}
	for r := 1; r < len(cfg.Peers); r++ {
		c.peers[r] = &peerConn{addr: cfg.Peers[r]}
		p := c.peers[r]
		p.mu.Lock()
		err := c.ensureConnLocked(p)
		p.mu.Unlock()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: rank %d (%s): %w", r, p.addr, err)
		}
	}
	return c, nil
}

// Ranks returns the cluster size, including the root.
func (c *Cluster) Ranks() int { return len(c.cfg.Peers) }

// MeterTotals returns the measured bytes-on-the-wire totals (frame
// headers included) across every peer connection since Connect.
func (c *Cluster) MeterTotals() (bytesSent, bytesReceived, messages int64) {
	return c.meter.Totals()
}

// Failovers returns how many remote chunks the cluster's slot generators
// have redone locally after worker failures.
func (c *Cluster) Failovers() int64 { return c.failovers.Load() }

// Close closes every peer connection.
func (c *Cluster) Close() error {
	var first error
	for _, p := range c.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			if err := p.conn.Close(); err != nil && first == nil {
				first = err
			}
			p.conn = nil
		}
		p.mu.Unlock()
	}
	return first
}

// ensureConnLocked dials and handshakes p if it has no live connection.
// Caller holds p.mu.
//
//imlint:locked-by p.mu
func (c *Cluster) ensureConnLocked(p *peerConn) error {
	if p.conn != nil {
		return nil
	}
	backoff := c.opt.Backoff
	var lastErr error
	for attempt := 0; attempt <= c.opt.DialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		nc, err := net.DialTimeout("tcp", p.addr, c.opt.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		conn := wire.NewConn(nc, c.opt.FrameTimeout, &c.meter)
		hello := wire.EncodeHello(wire.Hello{Tag: fmt.Sprintf("root@%s", c.cfg.Peers[0])})
		if _, err := conn.Call(wire.MsgHello, hello, wire.MsgHelloAck); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		p.conn = conn
		p.shipped = make(map[string]bool)
		return nil
	}
	return fmt.Errorf("dial %s: %w", p.addr, lastErr)
}

// share serializes g once and returns its broadcast identity. The wire
// name is content-derived (hint plus snapshot checksum), so two roots —
// or one root across reconnects — can never alias different graphs under
// one worker-cache key.
func (c *Cluster) share(g *graph.Graph, hint string, seed uint64) (*sharedGraph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sg, ok := c.shared[g]; ok {
		return sg, nil
	}
	var buf bytes.Buffer
	buf.Grow(int(ingest.SnapshotSize(g)))
	if err := ingest.WriteSnapshot(&buf, g, seed); err != nil {
		return nil, fmt.Errorf("dist: serialize graph for broadcast: %w", err)
	}
	snap := buf.Bytes()
	sum := crc32.Checksum(snap, crc32.MakeTable(crc32.Castagnoli))
	if hint == "" {
		hint = "g"
	}
	sg := &sharedGraph{name: fmt.Sprintf("%s@%08x", hint, sum), snap: snap}
	c.shared[g] = sg
	return sg, nil
}

// callRank performs one request/reply exchange with a worker rank,
// shipping the graph first if this connection has not seen it. A
// transport failure tears the connection down and retries once through a
// fresh dial (with backoff) before giving up — the reconnect path that
// lets a restarted worker rejoin mid-run.
func (c *Cluster) callRank(rank int, sg *sharedGraph, req wire.MsgType, payload []byte, want wire.MsgType) ([]byte, error) {
	if rank <= 0 || rank >= len(c.peers) {
		return nil, fmt.Errorf("dist: no peer connection for rank %d", rank)
	}
	p := c.peers[rank]
	p.mu.Lock()
	defer p.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.ensureConnLocked(p); err != nil {
			return nil, err
		}
		if sg != nil && !p.shipped[sg.name] {
			if _, err := p.conn.Call(wire.MsgGraph, wire.EncodeGraph(sg.name, sg.snap), wire.MsgGraphAck); err != nil {
				lastErr = err
				if isRemote(err) {
					return nil, err
				}
				p.conn.Close()
				p.conn = nil
				continue
			}
			p.shipped[sg.name] = true
		}
		body, err := p.conn.Call(req, payload, want)
		if err == nil {
			return body, nil
		}
		lastErr = err
		if isRemote(err) {
			// The worker answered in-protocol: the connection is healthy
			// and a retry would fail identically.
			return nil, err
		}
		p.conn.Close()
		p.conn = nil
	}
	return nil, lastErr
}

func isRemote(err error) bool {
	_, ok := err.(*wire.RemoteError)
	return ok
}

// Round asks a worker rank to generate slots [lo, lo+count) of g with
// the given sampling seed and return its chunk; wantCounter additionally
// requests the rank's dense occurrence counter. The rank generator never
// asks for it — the pool it extends counts its own sets, in its index (or
// a scan engine's counter) — so only bench/probes.go's wire probe passes
// the parameter.
func (c *Cluster) Round(rank int, g *graph.Graph, hint string, seed uint64, lo, count int64, wantCounter bool) (wire.RoundReply, error) {
	sg, err := c.share(g, hint, seed)
	if err != nil {
		return wire.RoundReply{}, err
	}
	req := wire.EncodeRound(wire.Round{Graph: sg.name, Seed: seed, Lo: lo, Count: count, WantCounter: wantCounter})
	body, err := c.callRank(rank, sg, wire.MsgRound, req, wire.MsgRoundReply)
	if err != nil {
		return wire.RoundReply{}, err
	}
	rep, err := wire.DecodeRoundReply(body)
	if err != nil {
		return wire.RoundReply{}, err
	}
	if rep.Counts != nil && int32(len(rep.Counts)) != g.N {
		return wire.RoundReply{}, fmt.Errorf("dist: rank %d counter has %d entries, want %d", rank, len(rep.Counts), g.N)
	}
	return rep, nil
}

// BroadcastSeeds sends a selection result to every connected worker —
// the SeedBroadcast phase on the wire. Best-effort: a dead worker does
// not fail the call (the result is already decided at the root), it just
// reports how many ranks were reached.
func (c *Cluster) BroadcastSeeds(seeds []int32, coverage float64) (reached int) {
	payload := wire.EncodeSeeds(wire.Seeds{Seeds: seeds, Coverage: coverage})
	for r := 1; r < len(c.peers); r++ {
		if _, err := c.callRank(r, nil, wire.MsgSeeds, payload, wire.MsgSeedsAck); err == nil {
			reached++
		}
	}
	return reached
}

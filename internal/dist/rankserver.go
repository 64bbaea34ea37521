package dist

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"

	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/rrr"
	"repro/internal/wire"
)

// RankServer is a worker rank's wire endpoint: it accepts root
// connections, caches broadcast graphs, and serves generation rounds.
// The generation itself is the exact slot-indexed path a shared-memory
// run uses (imm.GenerateSlots), so the member lists it ships are the
// member lists the root would have produced locally — the determinism
// contract that keeps seeds byte-identical at any rank count.
//
// One RankServer handles any number of concurrent roots (one goroutine
// per connection); the graph cache is shared across them, keyed by the
// root's content-derived broadcast names.
type RankServer struct {
	lis   net.Listener
	opt   ClusterOptions
	meter wire.Meter

	mu     sync.Mutex
	graphs map[string]*graph.Graph

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// ListenRank starts a worker rank's listener on addr (cfg.Peers[cfg.Rank]
// in cluster deployments). The caller runs Serve to process connections.
func ListenRank(addr string, opt ClusterOptions) (*RankServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: rank listen %s: %w", addr, err)
	}
	return &RankServer{
		lis:    lis,
		opt:    opt.normalized(),
		graphs: make(map[string]*graph.Graph),
		closed: make(chan struct{}),
	}, nil
}

// Addr returns the bound listen address (useful with ":0" listeners).
func (s *RankServer) Addr() string { return s.lis.Addr().String() }

// MeterTotals returns this rank's measured bytes-on-the-wire totals.
func (s *RankServer) MeterTotals() (bytesSent, bytesReceived, messages int64) {
	return s.meter.Totals()
}

// Serve accepts and processes root connections until Close. It returns
// nil after Close, or the first unexpected accept error.
func (s *RankServer) Serve() error {
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return fmt.Errorf("dist: rank accept: %w", err)
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
		}()
	}
}

// Close stops the listener and waits for in-flight connections to wind
// down. Connections parked waiting for the next frame are closed out
// from under their readers.
func (s *RankServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.lis.Close()
	})
	s.wg.Wait()
	return err
}

func (s *RankServer) serveConn(nc net.Conn) {
	// Track the raw conn so Close can unblock a parked ReadFrame.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.closed:
			nc.Close()
		case <-done:
		}
	}()

	conn := wire.NewConn(nc, s.opt.FrameTimeout, &s.meter)
	// A healthy root may go quiet for arbitrarily long between rounds
	// (selection, HTTP idle time), so the worker blocks without a read
	// deadline; the root's liveness is its problem, ours is to answer.
	conn.SetReadTimeout(0)
	defer conn.Close()
	for {
		t, payload, err := conn.ReadFrame()
		if err != nil {
			return // disconnect or corruption: drop the conn, root redials
		}
		if err := s.handle(conn, t, payload); err != nil {
			return
		}
	}
}

// handle processes one frame; a non-nil return drops the connection
// (reply write failures — in-protocol errors are replied, not returned).
func (s *RankServer) handle(conn *wire.Conn, t wire.MsgType, payload []byte) error {
	fail := func(code string, err error) error {
		return conn.WriteFrame(wire.MsgError, wire.EncodeError(code, err.Error()))
	}
	switch t {
	case wire.MsgHello:
		if _, err := wire.DecodeHello(payload); err != nil {
			return fail("bad_request", err)
		}
		return conn.WriteFrame(wire.MsgHelloAck, wire.EncodeHello(wire.Hello{Tag: "rank@" + s.Addr()}))

	case wire.MsgGraph:
		name, snap, err := wire.DecodeGraph(payload)
		if err != nil {
			return fail("bad_request", err)
		}
		s.mu.Lock()
		_, have := s.graphs[name]
		s.mu.Unlock()
		if !have {
			g, _, err := ingest.ReadSnapshot(bytes.NewReader(snap))
			if err != nil {
				return fail("bad_graph", err)
			}
			s.mu.Lock()
			s.graphs[name] = g
			s.mu.Unlock()
		}
		return conn.WriteFrame(wire.MsgGraphAck, nil)

	case wire.MsgRound:
		rd, err := wire.DecodeRound(payload)
		if err != nil {
			return fail("bad_request", err)
		}
		s.mu.Lock()
		g := s.graphs[rd.Graph]
		s.mu.Unlock()
		if g == nil {
			return fail("unknown_graph", fmt.Errorf("graph %q not broadcast to this rank", rd.Graph))
		}
		// No pool names a set past math.MaxInt32; Lo+Count is never formed.
		if rd.Count < 0 || rd.Lo < 0 || rd.Count > math.MaxInt32-rd.Lo {
			return fail("bad_request", fmt.Errorf("invalid slot range [%d, %d+%d)", rd.Lo, rd.Lo, rd.Count))
		}
		rep, err := generateRound(g, rd)
		if err != nil {
			return fail("internal", err)
		}
		return conn.WriteFrame(wire.MsgRoundReply, wire.EncodeRoundReply(rep))

	case wire.MsgSeeds:
		if _, err := wire.DecodeSeeds(payload); err != nil {
			return fail("bad_request", err)
		}
		// The broadcast exists so every rank can evaluate the stopping
		// rule; a pure worker has no driver loop, so receipt is the whole
		// obligation.
		return conn.WriteFrame(wire.MsgSeedsAck, nil)

	default:
		return fail("bad_request", fmt.Errorf("unexpected frame %v", t))
	}
}

// generateRound runs one generation round on the worker: sample the slot
// range with the slot-indexed streams and encode the sorted member lists
// plus the dense occurrence counter. The worker always samples with the
// list-only representation — the member sequence is representation-
// independent, and the root rebuilds each set under its own policy.
func generateRound(g *graph.Graph, rd wire.Round) (wire.RoundReply, error) {
	out := make([]rrr.Set, rd.Count)
	members, edges := imm.GenerateSlots(g, rrr.ListOnlyPolicy(), rd.Seed, rd.Lo, out)
	rep := wire.RoundReply{
		Members: members,
		Edges:   edges,
		Sets:    make([][]byte, len(out)),
	}
	if rd.WantCounter {
		rep.Counts = make([]int64, g.N)
	}
	for i, set := range out {
		ls, ok := set.(*rrr.ListSet)
		if !ok {
			return wire.RoundReply{}, fmt.Errorf("dist: unexpected %s set from list-only generation", set.Kind())
		}
		raw := ls.Raw()
		if rep.Counts != nil {
			for _, v := range raw {
				rep.Counts[v]++
			}
		}
		rep.Sets[i] = compress.AppendPlain(make([]byte, 0, len(raw)+4), raw)
	}
	return rep, nil
}

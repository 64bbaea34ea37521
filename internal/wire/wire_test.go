package wire

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/rrr"
)

// memConn is an in-memory net.Conn over a byte buffer: whatever is
// written can be read back. Deadlines are accepted and ignored.
type memConn struct {
	buf bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error)       { return m.buf.Read(p) }
func (m *memConn) Write(p []byte) (int, error)      { return m.buf.Write(p) }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (m *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

func TestFrameRoundTrip(t *testing.T) {
	mc := &memConn{}
	var meter Meter
	c := NewConn(mc, time.Second, &meter)
	payload := []byte("the quick brown fox")
	if err := c.WriteFrame(MsgRound, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	typ, got, err := c.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != MsgRound || !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: type=%v payload=%q", typ, got)
	}
	sent, recv, msgs := meter.Totals()
	want := int64(headerSize + len(payload))
	if sent != want || recv != want || msgs != 2 {
		t.Fatalf("meter = (%d, %d, %d), want (%d, %d, 2)", sent, recv, msgs, want, want)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	encode := func(payload []byte) []byte {
		mc := &memConn{}
		c := NewConn(mc, 0, nil)
		if err := c.WriteFrame(MsgSeeds, payload); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		return mc.buf.Bytes()
	}
	read := func(raw []byte) error {
		mc := &memConn{}
		mc.buf.Write(raw)
		_, _, err := NewConn(mc, 0, nil).ReadFrame()
		return err
	}

	base := encode([]byte("payload bytes here"))
	if err := read(base); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func([]byte)
		want    string
	}{
		{"magic", func(b []byte) { b[0] ^= 0xff }, "bad magic"},
		{"version", func(b []byte) { b[2] = Version + 1 }, "protocol version"},
		{"payload", func(b []byte) { b[headerSize+3] ^= 0x10 }, "checksum mismatch"},
		{"crc", func(b []byte) { b[8] ^= 0x01 }, "checksum mismatch"},
		{"length", func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 1<<30) }, "read seeds payload"},
	}
	for _, tc := range cases {
		raw := append([]byte(nil), base...)
		tc.corrupt(raw)
		err := read(raw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s corruption: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestFrameLengthBound(t *testing.T) {
	c := NewConn(&memConn{}, 0, nil)
	c.SetMaxFrame(16)
	if err := c.WriteFrame(MsgGraph, make([]byte, 17)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestCallMapsRemoteError(t *testing.T) {
	mc := &memConn{}
	// Pre-load the reply the peer would have sent.
	reply := NewConn(mc, 0, nil)
	if err := reply.WriteFrame(MsgError, EncodeError("unknown_graph", "no such graph")); err != nil {
		t.Fatal(err)
	}
	pre := mc.buf.Bytes()
	mc2 := &memConn{}
	mc2.buf.Write(pre)
	c := NewConn(mc2, 0, nil)
	_, err := c.Call(MsgRound, EncodeRound(Round{Graph: "g"}), MsgRoundReply)
	var re *RemoteError
	if !errorsAs(err, &re) || re.Code != "unknown_graph" {
		t.Fatalf("Call error = %v, want RemoteError{unknown_graph}", err)
	}
}

func errorsAs(err error, target *(*RemoteError)) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*target = re
	}
	return ok
}

func TestCodecRoundTrips(t *testing.T) {
	h, err := DecodeHello(EncodeHello(Hello{Tag: "root@127.0.0.1:9000"}))
	if err != nil || h.Tag != "root@127.0.0.1:9000" {
		t.Fatalf("hello: %+v, %v", h, err)
	}

	name, snap, err := DecodeGraph(EncodeGraph("rmat16", []byte{1, 2, 3, 4}))
	if err != nil || name != "rmat16" || !bytes.Equal(snap, []byte{1, 2, 3, 4}) {
		t.Fatalf("graph: %q %v %v", name, snap, err)
	}

	rd := Round{Graph: "g", Seed: 42, Lo: 1 << 33, Count: 4096, WantCounter: true}
	got, err := DecodeRound(EncodeRound(rd))
	if err != nil || got != rd {
		t.Fatalf("round: %+v, %v", got, err)
	}

	sets := [][]int32{{0, 5, 9}, {}, {7}, {1, 2, 3, 1 << 30}}
	rep := RoundReply{Members: 7, Edges: 123456}
	for _, s := range sets {
		rep.Sets = append(rep.Sets, compress.AppendPlain(nil, s))
	}
	rep.Counts = []int64{0, 3, 0, 0, 0, 1, 0, 0, 0, 2}
	dec, err := DecodeRoundReply(EncodeRoundReply(rep))
	if err != nil {
		t.Fatalf("round reply: %v", err)
	}
	if dec.Members != rep.Members || dec.Edges != rep.Edges || !reflect.DeepEqual(dec.Counts, rep.Counts) {
		t.Fatalf("round reply fields: %+v", dec)
	}
	for i, s := range sets {
		members, err := compress.DecodePlain(dec.Sets[i], nil)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if len(members) == 0 && len(s) == 0 {
			continue
		}
		if !reflect.DeepEqual(members, s) {
			t.Fatalf("set %d: got %v want %v", i, members, s)
		}
	}

	// Counter-free reply.
	dec, err = DecodeRoundReply(EncodeRoundReply(RoundReply{Sets: rep.Sets}))
	if err != nil || dec.Counts != nil {
		t.Fatalf("counter-free reply: %+v, %v", dec, err)
	}

	sd := Seeds{Seeds: []int32{9, 0, 1 << 29}, Coverage: 0.875}
	gotSeeds, err := DecodeSeeds(EncodeSeeds(sd))
	if err != nil || !reflect.DeepEqual(gotSeeds.Seeds, sd.Seeds) || gotSeeds.Coverage != sd.Coverage {
		t.Fatalf("seeds: %+v, %v", gotSeeds, err)
	}

	code, msg, err := DecodeError(EncodeError("overloaded", "queue full"))
	if err != nil || code != "overloaded" || msg != "queue full" {
		t.Fatalf("error: %q %q %v", code, msg, err)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := EncodeRoundReply(RoundReply{
		Members: 3,
		Edges:   9,
		Sets:    [][]byte{compress.AppendPlain(nil, []int32{1, 2, 3})},
		Counts:  []int64{1, 1, 1},
	})
	for i := 0; i < len(full); i++ {
		if _, err := DecodeRoundReply(full[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := DecodeRoundReply(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A counter length of 2^61: 8·n wraps to 0, so the decoder must refuse
	// the length before multiplying, not size the counter from it.
	if _, err := DecodeRoundReply(hugeCounterReply); err == nil {
		t.Fatal("impossible counter length accepted")
	}
	// A set whose header claims 2^40 members and carries none: the
	// chunk decoder must refuse it without sizing a buffer from the count.
	if c, _, _, err := imm.DecodeChunk(fuzzGraph, rrr.DefaultPolicy(), [][]byte{{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}}, make([]int32, 1)); err == nil {
		t.Fatalf("impossible member count accepted (%d members)", len(c.Lists))
	}
}

// hugeCounterReply is a round reply with no sets whose counter claims
// 2^61 entries: members 0, edges 0, set count 0, counter flag 1, then the
// uvarint length.
var hugeCounterReply = binary.AppendUvarint([]byte{0, 0, 0, 1}, 1<<61)

// auditChunk freezes sizes and c as a pool over fuzzN vertices, with the
// index the writer requires of a pool of sets, and reads it back through
// the .impool reader, whose structural audit refuses any set a pool must
// not hold.
func auditChunk(t *testing.T, sizes []int32, c imm.Chunk) {
	t.Helper()
	st := &imm.PoolState{N: fuzzN, Count: int64(len(sizes)), Sizes: sizes, ListData: c.Lists, BitmapData: c.Rows}
	policy := rrr.DefaultPolicy()
	ids := make([][]int32, fuzzN) // each vertex's sets
	var lc, bc int
	for i, size := range sizes {
		st.TotalMembers += int64(size)
		if policy.Dense(fuzzN, int(size)) {
			for wi, w := range c.Rows[bc : bc+fuzzN/64] {
				for ; w != 0; w &= w - 1 {
					v := wi<<6 + bits.TrailingZeros64(w)
					ids[v] = append(ids[v], int32(i))
				}
			}
			bc += fuzzN / 64
			continue
		}
		for _, v := range c.Lists[lc : lc+int(size)] {
			ids[v] = append(ids[v], int32(i))
		}
		lc += int(size)
	}
	if st.Count > 0 {
		st.PostIdx = make([]int64, fuzzN+1)
		for v, sets := range ids {
			st.PostIdx[v+1] = st.PostIdx[v] + int64(len(sets))
			if !policy.Dense(int32(st.Count), len(sets)) {
				st.PostData = append(st.PostData, sets...)
				continue
			}
			row := make([]uint64, (st.Count+63)/64)
			for _, id := range sets {
				row[id>>6] |= 1 << (id & 63)
			}
			st.PostRows = append(st.PostRows, row...)
		}
	}
	var buf bytes.Buffer
	if err := ingest.WritePoolSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ingest.ReadPoolSnapshot(&buf); err != nil {
		t.Fatalf("decoded chunk fails the pool audit: %v", err)
	}
}

// fuzzN is the vertex count the fuzzed replies' sets decode over: under
// the default policy a set of 16 or more members is a bitmap row.
const fuzzN = 256

// fuzzGraph is an edgeless graph of fuzzN vertices, the graph the chunk
// decoder reads the sets' in-degrees from.
var fuzzGraph = func() *graph.Graph {
	g, err := graph.FromEdges(fuzzN, nil, graph.IC, 1)
	if err != nil {
		panic(err)
	}
	return g
}()

// decodeAudited decodes plains as a rank's chunk and audits what it
// yields; a refusal is fine, a panic or an unauditable chunk is not.
func decodeAudited(t *testing.T, plains [][]byte) {
	t.Helper()
	sizes := make([]int32, len(plains))
	if c, _, _, err := imm.DecodeChunk(fuzzGraph, rrr.DefaultPolicy(), plains, sizes); err == nil {
		auditChunk(t, sizes, c)
	}
}

// FuzzWireFrame exercises both directions of the framing layer: (a)
// every (type, payload) writes and reads back identically, and (b)
// arbitrary byte streams never panic the reader and never yield a frame
// that a fresh write wouldn't have produced. A round reply's sets, and the
// payload taken as one set, either are refused by the root's chunk decoder
// or decode to sets the pool audit accepts.
func FuzzWireFrame(f *testing.F) {
	f.Add(uint8(MsgRound), []byte("hello"))
	f.Add(uint8(MsgError), []byte{})
	f.Add(uint8(0xff), []byte{0x69, 0x77, 1, 1, 0, 0, 0, 0})
	f.Add(uint8(MsgRoundReply), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}) // set payload claiming 2^40 members
	f.Add(uint8(MsgRoundReply), hugeCounterReply)
	dense := make([]int32, 20)
	for i := range dense {
		dense[i] = int32(3 * i)
	}
	sets := [][]byte{compress.AppendPlain(nil, []int32{4, 9}), compress.AppendPlain(nil, dense)} // a list and a row
	f.Add(uint8(MsgRoundReply), EncodeRoundReply(RoundReply{Sets: sets}))
	f.Add(uint8(MsgRoundReply), EncodeRoundReply(RoundReply{Sets: append(sets, compress.AppendPlain(nil, []int32{fuzzN}))}))
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		mc := &memConn{}
		c := NewConn(mc, 0, nil)
		if err := c.WriteFrame(MsgType(typ), payload); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		gotType, got, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame after write: %v", err)
		}
		if gotType != MsgType(typ) || !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch: %v %q", gotType, got)
		}

		// Feed the raw fuzz bytes straight into a reader: must not panic,
		// and any accepted frame must satisfy the header invariants.
		mc2 := &memConn{}
		mc2.buf.Write(payload)
		c2 := NewConn(mc2, 0, nil)
		c2.SetMaxFrame(1 << 20)
		if typ2, body, err := c2.ReadFrame(); err == nil {
			if typ2 == 0 && len(body) == 0 && len(payload) < headerSize {
				t.Fatal("reader accepted a short frame")
			}
		}

		// Structured decoders must be total over arbitrary input.
		_, _ = DecodeHello(payload)
		_, _, _ = DecodeGraph(payload)
		_, _ = DecodeRound(payload)
		if rep, err := DecodeRoundReply(payload); err == nil {
			decodeAudited(t, rep.Sets)
		}
		decodeAudited(t, [][]byte{payload})
		_, _ = DecodeSeeds(payload)
		_, _, _ = DecodeError(payload)
	})
}

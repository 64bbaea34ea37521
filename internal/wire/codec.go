package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/compress"
)

// Payload codecs. Every message body is a flat little-endian byte layout
// built from three primitives: uvarints, length-prefixed strings, and
// raw byte runs. RRR set lists reuse the pool's delta-varint plain
// coding (internal/compress), counters go dense (8 bytes per vertex —
// the same volume the simulated CounterReduce phase models), and graphs
// go as .imsnap snapshot bytes, so nothing on the wire has a private
// serialization that could drift from the in-memory formats.

// Hello opens a session. Tag names the dialing process for logs and
// error messages (e.g. "root@host:port").
type Hello struct {
	Tag string
}

// Round asks a rank to generate the RRR sets for slots [Lo, Lo+Count) of
// the named graph under the given sampling seed. WantCounter additionally
// requests the rank's dense occurrence counter over its chunk (the root's
// rank runtime folds the shipped sets itself and never sets it).
//
// No representation policy crosses the wire: the member sequence of a
// slot is representation-independent (the sorted unique vertex list), so
// the worker samples with the cheapest representation and the root
// rebuilds each set under its own policy, byte-identical to local
// generation.
type Round struct {
	Graph       string
	Seed        uint64
	Lo          int64
	Count       int64
	WantCounter bool
}

// RoundReply carries a rank's generation round back to the root: the
// per-slot member lists in slot order (plain delta-varint payloads),
// the sampling work metric, and optionally the dense counter.
type RoundReply struct {
	Members int64
	Edges   int64
	// Sets[i] is the plain coding (compress.AppendPlain) of slot Lo+i's
	// sorted member list; the slices alias the decoded frame payload.
	Sets [][]byte
	// Counts is the rank's dense occurrence counter (len = graph N), nil
	// when not requested.
	Counts []int64
}

// Seeds broadcasts a selection result: the seed vertices in selection
// order plus the achieved coverage, so every rank can evaluate the
// stopping rule exactly as the simulated runtime models.
type Seeds struct {
	Seeds    []int32
	Coverage float64
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// reader is a bounds-checked forward scanner over a frame payload; the
// first malformed field latches err and turns every later read into a
// zero-value no-op, so codecs can decode straight-line and check once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s", what)
	}
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) bytes(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail(what)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) string(what string) string {
	n := r.uvarint(what)
	return string(r.bytes(n, what))
}

func (r *reader) done(msg string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %s payload has %d trailing bytes", msg, len(r.b))
	}
	return nil
}

// EncodeHello encodes a Hello or HelloAck payload.
func EncodeHello(h Hello) []byte { return appendString(nil, h.Tag) }

// DecodeHello decodes a Hello or HelloAck payload.
func DecodeHello(b []byte) (Hello, error) {
	r := reader{b: b}
	h := Hello{Tag: r.string("hello tag")}
	return h, r.done("hello")
}

// EncodeGraph encodes a graph broadcast: the registry name followed by
// the .imsnap snapshot bytes (ingest.WriteSnapshot output).
func EncodeGraph(name string, snapshot []byte) []byte {
	dst := appendString(make([]byte, 0, len(name)+len(snapshot)+8), name)
	return append(dst, snapshot...)
}

// DecodeGraph splits a graph broadcast into name and snapshot bytes (a
// view into b).
func DecodeGraph(b []byte) (name string, snapshot []byte, err error) {
	r := reader{b: b}
	name = r.string("graph name")
	if r.err != nil {
		return "", nil, r.err
	}
	return name, r.b, nil
}

// EncodeRound encodes a generation-round request.
func EncodeRound(rd Round) []byte {
	dst := appendString(nil, rd.Graph)
	dst = binary.LittleEndian.AppendUint64(dst, rd.Seed)
	dst = binary.AppendUvarint(dst, uint64(rd.Lo))
	dst = binary.AppendUvarint(dst, uint64(rd.Count))
	flag := byte(0)
	if rd.WantCounter {
		flag = 1
	}
	return append(dst, flag)
}

// DecodeRound decodes a generation-round request.
func DecodeRound(b []byte) (Round, error) {
	r := reader{b: b}
	rd := Round{
		Graph: r.string("round graph"),
		Seed:  r.u64("round seed"),
		Lo:    int64(r.uvarint("round lo")),
		Count: int64(r.uvarint("round count")),
	}
	flag := r.bytes(1, "round flags")
	if r.err == nil {
		rd.WantCounter = flag[0]&1 != 0
	}
	return rd, r.done("round")
}

// AppendSet appends one slot's plain-coded member list (already encoded
// with compress.AppendPlain) as a length-prefixed run.
func AppendSet(dst, plain []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(plain)))
	return append(dst, plain...)
}

// EncodeRoundReply encodes a generation-round reply. rep.Sets must hold
// the plain codings in slot order; rep.Counts may be nil.
func EncodeRoundReply(rep RoundReply) []byte {
	size := 32
	for _, s := range rep.Sets {
		size += len(s) + 4
	}
	if rep.Counts != nil {
		size += 8 * len(rep.Counts)
	}
	dst := make([]byte, 0, size)
	dst = binary.AppendUvarint(dst, uint64(rep.Members))
	dst = binary.AppendUvarint(dst, uint64(rep.Edges))
	dst = binary.AppendUvarint(dst, uint64(len(rep.Sets)))
	for _, s := range rep.Sets {
		dst = AppendSet(dst, s)
	}
	if rep.Counts == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(rep.Counts)))
	for _, c := range rep.Counts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
	}
	return dst
}

// DecodeRoundReply decodes a generation-round reply. Sets and Counts
// alias b.
func DecodeRoundReply(b []byte) (RoundReply, error) {
	r := reader{b: b}
	rep := RoundReply{
		Members: int64(r.uvarint("reply members")),
		Edges:   int64(r.uvarint("reply edges")),
	}
	nsets := r.uvarint("reply set count")
	if r.err == nil && nsets > uint64(len(r.b)) {
		// Each set payload costs at least its one length byte, so a count
		// beyond the remaining bytes is corrupt; reject before allocating.
		return rep, fmt.Errorf("wire: reply claims %d sets in %d bytes", nsets, len(r.b))
	}
	if r.err == nil {
		rep.Sets = make([][]byte, 0, nsets)
		for i := uint64(0); i < nsets && r.err == nil; i++ {
			n := r.uvarint("reply set length")
			rep.Sets = append(rep.Sets, r.bytes(n, "reply set payload"))
		}
	}
	flag := r.bytes(1, "reply counter flag")
	if r.err == nil && flag[0]&1 != 0 {
		n := r.uvarint("reply counter length")
		if r.err == nil && n > uint64(len(r.b))/8 {
			// Checked before 8*n, which a length of 2^61 or more would wrap.
			return rep, fmt.Errorf("wire: reply claims a %d-entry counter in %d bytes", n, len(r.b))
		}
		raw := r.bytes(8*n, "reply counter payload")
		if r.err == nil {
			rep.Counts = make([]int64, n)
			for i := range rep.Counts {
				rep.Counts[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
	}
	return rep, r.done("round reply")
}

// DecodeSetMembers decodes one plain-coded set payload from a RoundReply
// into a freshly sized member slice.
func DecodeSetMembers(plain []byte) ([]int32, error) {
	count, err := compress.PlainCount(plain)
	if err != nil {
		return nil, err
	}
	return compress.DecodePlain(plain, make([]int32, 0, count))
}

// EncodeSeeds encodes a seed broadcast.
func EncodeSeeds(s Seeds) []byte {
	dst := binary.AppendUvarint(make([]byte, 0, 4*len(s.Seeds)+16), uint64(len(s.Seeds)))
	for _, v := range s.Seeds {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Coverage))
}

// DecodeSeeds decodes a seed broadcast.
func DecodeSeeds(b []byte) (Seeds, error) {
	r := reader{b: b}
	n := r.uvarint("seeds count")
	if r.err == nil && n > uint64(len(r.b)) {
		return Seeds{}, fmt.Errorf("wire: seed broadcast claims %d seeds in %d bytes", n, len(r.b))
	}
	var s Seeds
	if r.err == nil {
		s.Seeds = make([]int32, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			s.Seeds = append(s.Seeds, int32(uint32(r.uvarint("seed id"))))
		}
	}
	s.Coverage = math.Float64frombits(r.u64("seeds coverage"))
	return s, r.done("seeds")
}

// EncodeError encodes an in-protocol error reply.
func EncodeError(code, message string) []byte {
	return appendString(appendString(nil, code), message)
}

// DecodeError decodes an in-protocol error reply.
func DecodeError(b []byte) (code, message string, err error) {
	r := reader{b: b}
	code = r.string("error code")
	message = r.string("error message")
	return code, message, r.done("error")
}

package dist

import (
	"reflect"
	"testing"

	"repro/internal/imm"
)

// bill is the part of a distributed result the cost model fixes: every
// modeled Comm figure, the modeled phase costs, and the trajectory and
// seeds they were charged for. Measured wire bytes are not in it.
type bill struct {
	Total, ThetaX, Counter, Gather, SeedB, GraphB PhaseComm
	Sampling, Selection                           float64
	Theta                                         int64
	Rounds                                        int
	Seeds                                         []int32
}

// ph is a phase whose every byte sent was received once.
func ph(bytes, msgs int64) PhaseComm {
	return PhaseComm{BytesSent: bytes, BytesReceived: bytes, Messages: msgs}
}

func billOf(res *Result) bill {
	c := res.Comm
	return bill{
		Total:     PhaseComm{BytesSent: c.BytesSent, BytesReceived: c.BytesReceived, Messages: c.Messages},
		ThetaX:    c.ThetaExchange,
		Counter:   c.CounterReduce,
		Gather:    c.SetGather,
		SeedB:     c.SeedBroadcast,
		GraphB:    c.GraphBroadcast,
		Sampling:  res.Breakdown.SamplingModeled,
		Selection: res.Breakdown.SelectionModeled,
		Theta:     res.Theta,
		Rounds:    res.Rounds,
		Seeds:     res.Seeds,
	}
}

// TestModeledBillPinned pins the modeled communication and phase costs of
// distributed runs to literals: how the ranks are driven may change, what
// the model charges for a given run may not.
func TestModeledBillPinned(t *testing.T) {
	g := testGraph(t)
	run := func(ranks int, edit func(*Options)) func(*testing.T) *Result {
		return func(t *testing.T) *Result {
			opt := testOptions(ranks)
			if edit != nil {
				edit(&opt)
			}
			res, err := Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	seeds := []int32{194, 214, 61, 212, 248, 47}
	cases := []struct {
		name string
		run  func(*testing.T) *Result
		want bill
	}{
		{"ranks=1", run(1, nil), bill{Sampling: 617641, Selection: 265374, Theta: 961, Rounds: 2, Seeds: seeds}},
		{"ranks=2", run(2, nil), bill{Total: ph(22332, 18), ThetaX: ph(120, 9), Counter: ph(6144, 3), Gather: ph(15972, 3), SeedB: ph(96, 3),
			Sampling: 328180, Selection: 265374, Theta: 961, Rounds: 2, Seeds: seeds}},
		{"ranks=3", run(3, nil), bill{Total: ph(34156, 36), ThetaX: ph(240, 18), Counter: ph(12288, 6), Gather: ph(21436, 6), SeedB: ph(192, 6),
			Sampling: 220269, Selection: 265374, Theta: 961, Rounds: 2, Seeds: seeds}},
		{"ranks=4", run(4, nil), bill{Total: ph(43308, 54), ThetaX: ph(360, 27), Counter: ph(18432, 9), Gather: ph(24228, 9), SeedB: ph(288, 9),
			Sampling: 171488, Selection: 265374, Theta: 961, Rounds: 2, Seeds: seeds}},
		{"ranks=8", run(8, nil), bill{Total: ph(72616, 126), ThetaX: ph(840, 63), Counter: ph(43008, 21), Gather: ph(28096, 21), SeedB: ph(672, 21),
			Sampling: 90979, Selection: 265374, Theta: 961, Rounds: 2, Seeds: seeds}},
		{"ranks=8/maxtheta=5", run(8, func(o *Options) { o.MaxTheta = 5 }), bill{Total: ph(15192, 49), ThetaX: ph(280, 21), Counter: ph(14336, 7), Gather: ph(128, 7), SeedB: ph(448, 14),
			Sampling: 1257, Selection: 11168, Theta: 5, Rounds: 1, Seeds: []int32{50, 150, 155, 226, 0, 1}}},
		{"ranks=3/compressed", run(3, func(o *Options) { o.Pool = imm.PoolCompressed }), bill{Total: ph(33633, 36), ThetaX: ph(240, 18), Counter: ph(12288, 6), Gather: ph(20913, 6), SeedB: ph(192, 6),
			Sampling: 220269, Selection: 265374, Theta: 961, Rounds: 2, Seeds: seeds}},
		{"cluster/ranks=3", func(t *testing.T) *Result {
			cl, err := Connect(startWorkers(t, 2), testClusterOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			res, err := RunCluster(g, testOptions(3), cl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Comm.Failovers != 0 {
				t.Fatalf("failovers %d", res.Comm.Failovers)
			}
			return res
		}, bill{Total: ph(75892, 38), ThetaX: ph(240, 18), Counter: ph(12288, 6), Gather: ph(21436, 6), SeedB: ph(192, 6), GraphB: ph(41736, 2),
			Sampling: 220269, Selection: 265374, Theta: 961, Rounds: 2, Seeds: seeds}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := billOf(tc.run(t))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("modeled bill changed:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

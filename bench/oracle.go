package main

// The oracle: every served answer must carry the seeds and theta a cold
// library Run gives for the same (graph epoch, k, eps, RNG seed). It runs
// after the timed window, once per distinct query.

import (
	"fmt"
	"reflect"

	efficientimm "repro"
)

// answer is what a served op returned, kept for verification.
type answer struct {
	req       efficientimm.QueryRequest
	epoch     int // index into the workload's graph history; 0 without deltas
	seeds     []int32
	theta     int64
	generated int64
	warm      bool
	poolBytes int64
}

func record(req efficientimm.QueryRequest, epoch int, res *efficientimm.QueryResult) answer {
	return answer{req: req, epoch: epoch, seeds: res.Seeds, theta: res.Theta, generated: res.GeneratedSets, warm: res.Warm, poolBytes: res.PoolBytes}
}

type oracleKey struct {
	epoch int
	k     int
	eps   float64
	seed  uint64
}

// oracle caches cold references. graphs[i] is the graph at epoch i.
type oracle struct {
	opt    efficientimm.ServeOptions
	graphs []*efficientimm.Graph
	refs   map[oracleKey]*efficientimm.Result
}

func newOracle(opt efficientimm.ServeOptions, g *efficientimm.Graph) *oracle {
	return &oracle{opt: opt, graphs: []*efficientimm.Graph{g}, refs: map[oracleKey]*efficientimm.Result{}}
}

// reference returns the cold answer for req on the graph at epoch.
func (o *oracle) reference(epoch int, req efficientimm.QueryRequest) (*efficientimm.Result, error) {
	key := oracleKey{epoch, req.K, req.Epsilon, req.Seed}
	if ref, ok := o.refs[key]; ok {
		return ref, nil
	}
	if epoch >= len(o.graphs) || o.graphs[epoch] == nil {
		return nil, fmt.Errorf("oracle: no graph for epoch %d", epoch)
	}
	// The one serve -> imm option mapping, so the reference is the cold
	// run the server's contract names.
	eo := o.opt.EngineOptions()
	eo.K, eo.Epsilon, eo.Seed = req.K, req.Epsilon, req.Seed
	ref, err := efficientimm.Run(o.graphs[epoch], eo)
	if err != nil {
		return nil, fmt.Errorf("oracle: cold run: %w", err)
	}
	o.refs[key] = ref
	return ref, nil
}

// matches reports whether a served answer equals its cold reference.
func (o *oracle) matches(epoch int, req efficientimm.QueryRequest, seeds []int32, theta int64) (bool, error) {
	ref, err := o.reference(epoch, req)
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(seeds, ref.Seeds) && theta == ref.Theta, nil
}

// check counts the answers that differ from their cold reference.
func (o *oracle) check(answers []answer) (wrong int, err error) {
	for _, a := range answers {
		ok, err := o.matches(a.epoch, a.req, a.seeds, a.theta)
		if err != nil {
			return 0, err
		}
		if !ok {
			wrong++
		}
	}
	return wrong, nil
}

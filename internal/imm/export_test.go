package imm

import "repro/internal/graph"

// EngineState exposes what a refused lifecycle call must leave as it
// was: the engine's graph, its pool length and its slot generator.
func EngineState(w *WarmEngine) (*graph.Graph, int64, SlotGenerator) { return w.g, w.p.len(), w.remote }

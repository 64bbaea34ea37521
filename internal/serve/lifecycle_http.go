package serve

// The /v1 graph-lifecycle HTTP surface:
//
//	GET    /v1/graphs               registered graphs ({"graphs":[...]})
//	POST   /v1/graphs               register from snapshot path or inline edges (201)
//	GET    /v1/graphs/{name}        one graph's info, including epoch
//	DELETE /v1/graphs/{name}        unregister + evict its warm pools
//	POST   /v1/graphs/{name}/edges  apply an edge delta (inline or .imdelta path)
//
// Failures ride the unified envelope: unknown names 404, malformed
// bodies and rejected deltas 400 (invalid_query / invalid_delta),
// duplicate registrations 409 (graph_exists), bodies past
// MaxUploadBytes 413 (body_too_large).

import (
	"fmt"
	"net/http"

	"repro/internal/graph"
	"repro/internal/ingest"
)

// maxInlineEdges bounds one inline registration or delta body: ample
// for interactive updates, small enough that bulk loads go through the
// snapshot/.imdelta codecs instead of JSON.
const maxInlineEdges = 1 << 20

// MaxUploadBytes caps an inline graph registration or delta body — POST
// /v1/graphs and /v1/graphs/{name}/edges — on a node and on the router
// in front of it, so an oversized upload is refused before it is decoded
// whole. It allows 32 bytes for each of maxInlineEdges edges: an edge at
// full int32 width, "[2147483647,2147483647],", is 24, and a delta edge
// between 7-digit ids with its float32 add probability about 29.
const MaxUploadBytes = 32 * maxInlineEdges

// GraphsResponse is the GET /v1/graphs payload.
type GraphsResponse struct {
	Graphs []GraphInfo `json:"graphs"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, GraphsResponse{Graphs: s.Graphs()})
}

// RegisterGraphRequest is the POST /v1/graphs body. Exactly one source
// must be given: Snapshot (a server-side .imsnap path) or Edges (an
// inline [src,dst] list, weighted from Model and WeightSeed exactly
// like edge-list ingestion).
type RegisterGraphRequest struct {
	Name     string `json:"name"`
	Snapshot string `json:"snapshot,omitempty"`

	Model string     `json:"model,omitempty"`
	Nodes int32      `json:"nodes,omitempty"` // optional floor; grown to max id + 1
	Edges [][2]int32 `json:"edges,omitempty"`
	// WeightSeed derives the diffusion weights of an inline edge list
	// (defaults to 1, matching the ingestion default).
	WeightSeed uint64 `json:"weight_seed,omitempty"`
}

func (s *Server) handleGraphRegister(w http.ResponseWriter, r *http.Request) {
	req := RegisterGraphRequest{WeightSeed: 1}
	if err := decodeBody(w, r, &req, MaxUploadBytes); err != nil {
		writeError(w, err)
		return
	}
	if req.Name == "" {
		writeError(w, fmt.Errorf("serve: %w: missing graph name", ErrInvalidQuery))
		return
	}
	var info GraphInfo
	var err error
	switch {
	case req.Snapshot != "" && req.Edges != nil:
		writeError(w, fmt.Errorf("serve: %w: give either a snapshot path or inline edges, not both", ErrInvalidQuery))
		return
	case req.Snapshot != "":
		info, err = s.AddSnapshot(req.Name, req.Snapshot)
	case len(req.Edges) > 0:
		info, err = s.registerInline(req)
	default:
		writeError(w, fmt.Errorf("serve: %w: a registration needs a snapshot path or an inline edge list", ErrInvalidQuery))
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// registerInline builds a graph from an inline edge list and registers
// it. Self-loops and duplicates are dropped exactly as edge-list
// ingestion drops them.
func (s *Server) registerInline(req RegisterGraphRequest) (GraphInfo, error) {
	if len(req.Edges) > maxInlineEdges {
		return GraphInfo{}, fmt.Errorf("serve: %w: inline edge list holds %d edges, max %d (use a snapshot)", ErrInvalidQuery, len(req.Edges), maxInlineEdges)
	}
	if req.Model == "" {
		return GraphInfo{}, fmt.Errorf("serve: %w: inline registration needs a model (IC or LT)", ErrInvalidQuery)
	}
	model, err := graph.ParseModel(req.Model)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("serve: %w: %v", ErrInvalidQuery, err)
	}
	n := req.Nodes
	edges := make([]graph.Edge, len(req.Edges))
	for i, e := range req.Edges {
		if e[0] < 0 || e[1] < 0 {
			return GraphInfo{}, fmt.Errorf("serve: %w: edge %d has a negative endpoint (%d, %d)", ErrInvalidQuery, i, e[0], e[1])
		}
		edges[i] = graph.Edge{Src: e[0], Dst: e[1]}
		if e[0] >= n {
			n = e[0] + 1
		}
		if e[1] >= n {
			n = e[1] + 1
		}
	}
	g, err := graph.FromEdges(n, edges, model, req.WeightSeed)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("serve: %w: %v", ErrInvalidQuery, err)
	}
	return s.AddGraph(req.Name, g, req.WeightSeed)
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.GraphByName(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// RemoveGraphResponse is the DELETE /v1/graphs/{name} payload.
type RemoveGraphResponse struct {
	Graph        GraphInfo `json:"graph"`
	PoolsEvicted int       `json:"pools_evicted"`
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	info, evicted, err := s.RemoveGraph(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RemoveGraphResponse{Graph: info, PoolsEvicted: evicted})
}

// DeltaRequest is the POST /v1/graphs/{name}/edges body. Exactly one
// source: File (a server-side .imdelta path) or the inline
// Add/AddProb/Remove lists. Strict selects fail-on-drop application
// (the DedupeStrict policy); otherwise self-loops, duplicates, and
// absent removals are counted and dropped.
type DeltaRequest struct {
	File string `json:"file,omitempty"`

	Add     [][2]int32 `json:"add,omitempty"`
	AddProb []float32  `json:"add_prob,omitempty"`
	Remove  [][2]int32 `json:"remove,omitempty"`
	// Seed derives weights for added edges (and re-derives LT
	// in-segments of dirty vertices); inline deltas only — a .imdelta
	// file carries its own.
	Seed uint64 `json:"seed,omitempty"`

	Strict bool `json:"strict,omitempty"`
}

func (s *Server) handleGraphEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req DeltaRequest
	if err := decodeBody(w, r, &req, MaxUploadBytes); err != nil {
		writeError(w, err)
		return
	}
	var d graph.Delta
	switch {
	case req.File != "" && (req.Add != nil || req.Remove != nil || req.AddProb != nil):
		writeError(w, fmt.Errorf("serve: %w: give either a .imdelta file or inline edges, not both", ErrInvalidQuery))
		return
	case req.File != "":
		var err error
		if d, _, err = ingest.ReadDeltaFile(req.File); err != nil {
			writeError(w, fmt.Errorf("serve: %w: %v", ErrInvalidDelta, err))
			return
		}
	default:
		if len(req.Add)+len(req.Remove) > maxInlineEdges {
			writeError(w, fmt.Errorf("serve: %w: inline delta holds %d edges, max %d (use a .imdelta file)", ErrInvalidQuery, len(req.Add)+len(req.Remove), maxInlineEdges))
			return
		}
		d = graph.Delta{AddProb: req.AddProb, Seed: req.Seed}
		for _, e := range req.Add {
			d.Add = append(d.Add, graph.Edge{Src: e[0], Dst: e[1]})
		}
		for _, e := range req.Remove {
			d.Remove = append(d.Remove, graph.Edge{Src: e[0], Dst: e[1]})
		}
	}
	res, err := s.ApplyDelta(name, d, graph.DeltaOptions{Strict: req.Strict})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

package route

// Graph lifecycle at the router. Queries shard by pool key, but
// lifecycle writes broadcast to the whole fleet: the ring can hand any
// (graph, seed) key to any node, so every node must hold every graph.
// Broadcasting keeps the fleet convergent without the router owning
// any state — registration tolerates per-node graph_exists replies
// (so a retry after a partial failure converges), deletion tolerates
// per-node unknown_graph replies, and a delta that lands on only part
// of the fleet is reported as partial_update so the caller knows to
// re-apply or re-register.
//
// Reads are epoch-aware: GET /v1/graphs/{name} fans out and answers
// with the highest epoch any node reports, and the /v1/graphs union
// keeps the max-epoch entry per name, so a node that lags on deltas
// can never mask the fleet's progress.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"

	"repro/internal/serve"
)

// nodeReply is one node's captured answer to a broadcast.
type nodeReply struct {
	status     int
	retryAfter string
	body       []byte
}

// broadcast sends method+path+body to every node concurrently.
func (rt *Router) broadcast(method, path string, body []byte) []nodeReply {
	out := make([]nodeReply, len(rt.nodes))
	var wg sync.WaitGroup
	for i := range rt.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, retryAfter, b := rt.forwardPath(i, method, path, body)
			out[i] = nodeReply{status: status, retryAfter: retryAfter, body: b}
		}(i)
	}
	wg.Wait()
	return out
}

// writeReply passes one node's reply through verbatim.
func writeReply(w http.ResponseWriter, rep nodeReply) {
	if rep.retryAfter != "" {
		w.Header().Set("Retry-After", rep.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rep.status)
	w.Write(rep.body)
}

func graphPath(name string) string { return "/v1/graphs/" + url.PathEscape(name) }

// handleGraphs unions the fleet's registries.
func (rt *Router) handleGraphs(w http.ResponseWriter, r *http.Request) {
	replies := rt.fanOut("/v1/graphs", func(node, status int, body []byte) any {
		if status != http.StatusOK {
			return fmt.Errorf("node %s: HTTP %d", rt.nodes[node], status)
		}
		var gr serve.GraphsResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			return err
		}
		return gr.Graphs
	})
	out, reached := unionGraphs(replies)
	if reached == 0 {
		serve.WriteErrorEnvelope(w, http.StatusServiceUnavailable, "node_unavailable", "no node is reachable")
		return
	}
	writeJSON(w, http.StatusOK, serve.GraphsResponse{Graphs: out})
}

// handleGraphRegister broadcasts a registration. Nodes that already
// hold the name answer graph_exists and count as registered — a retry
// after a node failure converges instead of failing forever — so the
// call succeeds when every node holds the graph and at least one
// registered it now; it is a conflict only when no node was missing it.
func (rt *Router) handleGraphRegister(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, serve.MaxUploadBytes)
	if err != nil {
		return
	}
	replies := rt.broadcast(http.MethodPost, "/v1/graphs", body)
	var created *serve.GraphInfo
	fail := -1
	for i, rep := range replies {
		switch rep.status {
		case http.StatusCreated:
			if created == nil {
				var info serve.GraphInfo
				if json.Unmarshal(rep.body, &info) == nil {
					created = &info
				}
			}
		case http.StatusConflict:
			// Already registered on this node; convergent.
		default:
			if fail < 0 {
				fail = i
			}
		}
	}
	switch {
	case fail >= 0:
		writeReply(w, replies[fail])
	case created != nil:
		writeJSON(w, http.StatusCreated, created)
	default:
		writeReply(w, replies[0]) // every node: graph_exists
	}
}

// handleGraphGet answers with the highest epoch any node reports.
func (rt *Router) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	replies := rt.fanOut(graphPath(name), func(node, status int, body []byte) any {
		if status != http.StatusOK {
			return nil
		}
		var info serve.GraphInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return nil
		}
		return info
	})
	var best *serve.GraphInfo
	for i := range replies {
		if info, ok := replies[i].(serve.GraphInfo); ok && (best == nil || info.Epoch > best.Epoch) {
			best = &info
		}
	}
	if best == nil {
		serve.WriteErrorEnvelope(w, http.StatusNotFound, "unknown_graph",
			fmt.Sprintf("unknown graph %q on every node", name))
		return
	}
	writeJSON(w, http.StatusOK, best)
}

// handleGraphDelete broadcasts a deletion, summing evicted pools;
// nodes that never held the graph answer unknown_graph and are
// tolerated. Only when every node answers unknown_graph is the graph
// truly unknown.
func (rt *Router) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	replies := rt.broadcast(http.MethodDelete, graphPath(r.PathValue("name")), nil)
	var merged *serve.RemoveGraphResponse
	fail := -1
	for i, rep := range replies {
		switch rep.status {
		case http.StatusOK:
			var res serve.RemoveGraphResponse
			if json.Unmarshal(rep.body, &res) != nil {
				continue
			}
			if merged == nil {
				merged = &res
			} else {
				merged.PoolsEvicted += res.PoolsEvicted
			}
		case http.StatusNotFound:
			// This node never held it; convergent.
		default:
			if fail < 0 {
				fail = i
			}
		}
	}
	switch {
	case fail >= 0:
		writeReply(w, replies[fail])
	case merged != nil:
		writeJSON(w, http.StatusOK, merged)
	default:
		writeReply(w, replies[0]) // every node: unknown_graph
	}
}

// handleGraphEdges broadcasts a delta. Every node applies the same
// deterministic delta, so the per-graph fields of the merged result
// agree across replies; the repair counters sum over the fleet's
// pools. A delta that reaches only part of the fleet leaves nodes on
// different epochs — that is surfaced as partial_update (the caller
// re-applies, or re-registers the graph to reconverge) rather than
// silently reporting success.
func (rt *Router) handleGraphEdges(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, serve.MaxUploadBytes)
	if err != nil {
		return
	}
	name := r.PathValue("name")
	replies := rt.broadcast(http.MethodPost, graphPath(name)+"/edges", body)
	var merged *serve.DeltaResult
	applied, fail := 0, -1
	for i, rep := range replies {
		switch rep.status {
		case http.StatusOK:
			var res serve.DeltaResult
			if json.Unmarshal(rep.body, &res) != nil {
				continue
			}
			applied++
			if merged == nil {
				merged = &res
			} else {
				merged.PoolsRepaired += res.PoolsRepaired
				merged.SetsResampled += res.SetsResampled
				merged.FullResamples += res.FullResamples
			}
		case http.StatusNotFound:
			// This node does not hold the graph; it has no pools for it
			// either, so skipping it loses nothing.
		default:
			if fail < 0 {
				fail = i
			}
		}
	}
	switch {
	case fail >= 0 && applied > 0:
		code, msg := unwrapEnvelope(replies[fail].body, replies[fail].status)
		serve.WriteErrorEnvelope(w, http.StatusBadGateway, "partial_update",
			fmt.Sprintf("delta applied on %d/%d nodes; node %s failed with %s: %s — re-apply to reconverge",
				applied, len(rt.nodes), rt.nodes[fail], code, msg))
	case fail >= 0:
		writeReply(w, replies[fail])
	case merged != nil:
		writeJSON(w, http.StatusOK, merged)
	default:
		writeReply(w, replies[0]) // every node: unknown_graph
	}
}

// unionGraphs merges per-node graph lists, keeping the max-epoch entry
// per name, and reports how many nodes answered.
func unionGraphs(replies []any) ([]serve.GraphInfo, int) {
	byName := make(map[string]serve.GraphInfo)
	reached := 0
	for _, rep := range replies {
		graphs, ok := rep.([]serve.GraphInfo)
		if !ok {
			continue
		}
		reached++
		for _, g := range graphs {
			if cur, ok := byName[g.Name]; !ok || g.Epoch > cur.Epoch {
				byName[g.Name] = g
			}
		}
	}
	out := make([]serve.GraphInfo, 0, len(byName))
	for _, g := range byName {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, reached
}

// findHolder polls the fleet for a node that holds graph, preferring
// the highest epoch; skip (the ring owner that just answered
// unknown_graph) is excluded. This is the recovery path for graphs
// registered after boot directly on some nodes rather than through the
// router's broadcast.
func (rt *Router) findHolder(graph string, skip int) (int, bool) {
	replies := rt.fanOut(graphPath(graph), func(node, status int, body []byte) any {
		if status != http.StatusOK {
			return nil
		}
		var info serve.GraphInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return nil
		}
		return info
	})
	best, bestEpoch := -1, int64(-1)
	for i := range replies {
		if i == skip {
			continue
		}
		if info, ok := replies[i].(serve.GraphInfo); ok && (best < 0 || info.Epoch > bestEpoch) {
			best, bestEpoch = i, info.Epoch
		}
	}
	return best, best >= 0
}

// readBody drains at most limit bytes of the request body, writing the
// error envelope on failure: 413 body_too_large past the limit, 400
// invalid_query otherwise. The router buffers every body whole before
// forwarding it, so it caps each at the bound its nodes apply:
// serve.MaxBodyBytes for query, job and batch bodies (readControlBody),
// serve.MaxUploadBytes for graph and delta uploads.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		serve.WriteErrorEnvelope(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return nil, err
	case err != nil:
		serve.WriteErrorEnvelope(w, http.StatusBadRequest, "invalid_query", "unreadable request body")
		return nil, err
	}
	return body, nil
}

// readControlBody is readBody under the nodes' cap on JSON control
// bodies: the query, job and batch bodies the router buffers whole
// before it knows their owners.
func readControlBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return readBody(w, r, serve.MaxBodyBytes)
}

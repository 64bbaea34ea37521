package serve

import "errors"

// Sentinel errors of the query service. Every error Server returns
// wraps exactly one of these (or is a genuine engine failure, which
// wraps none), so front-ends can map failures to transport-level
// outcomes with errors.Is instead of string matching — the HTTP handler
// turns them into 404/400/429/503 and reserves 500 for the unwrapped
// remainder.
var (
	// ErrUnknownGraph marks a query against a graph name the registry
	// does not hold (HTTP 404).
	ErrUnknownGraph = errors.New("unknown graph")
	// ErrInvalidQuery marks client-side validation failures: k ≤ 0,
	// ε outside (0,1), a model mismatch, or a malformed parameter
	// (HTTP 400).
	ErrInvalidQuery = errors.New("invalid query")
	// ErrOverloaded marks an admission rejection: every query worker is
	// busy and the wait queue is full, or the jobs table is full of
	// unfinished jobs (HTTP 429 with Retry-After).
	ErrOverloaded = errors.New("server overloaded")
	// ErrShuttingDown marks work rejected because Shutdown has begun
	// (HTTP 503). In-flight and already-queued work still completes.
	ErrShuttingDown = errors.New("server shutting down")
	// ErrUnknownJob marks a lookup of a job id that was never issued or
	// has been pruned (HTTP 404).
	ErrUnknownJob = errors.New("unknown job")
	// ErrGraphExists marks a registration under a name the registry
	// already holds (HTTP 409) — drop-and-replace would silently
	// invalidate warm pools, so replacement is an explicit DELETE + POST.
	ErrGraphExists = errors.New("graph already registered")
	// ErrInvalidDelta marks a malformed or rejected edge delta: strict
	// violations (self-loops, duplicates, absent removals), out-of-range
	// endpoints, or a mismatched probability vector (HTTP 400).
	ErrInvalidDelta = errors.New("invalid delta")
	// ErrBodyTooLarge marks a JSON control body — a query, job, batch or
	// pools/save request — longer than MaxBodyBytes, or an inline graph
	// or delta upload longer than MaxUploadBytes (HTTP 413).
	ErrBodyTooLarge = errors.New("request body too large")
)

package serve

// The batched query planner and its admission control.
//
// Concurrency shape: a query first passes admission (a bounded worker
// pool with a bounded wait queue — the backpressure seam), then joins
// its pool's wait queue. The first query to reach an idle pool becomes
// the drainer: it waits one gather window for concurrent queries on the
// same pool to pile up, then repeatedly drains the whole queue as one
// batch until the queue is empty — "whoever holds the pool drains the
// waiting queue". Each batch is answered by imm.WarmEngine.AnswerBatch:
// one shared θ-extension sized by the largest member, every member read
// from its own θ-prefix, so a mixed-k/mixed-ε burst pays one generation
// pass instead of a serialized convoy of incremental extensions. The
// window is skipped only where it buys nothing: when the pool's
// previous drain was one plain warm answer that ended less than a
// window ago, the leader is a sequential client coming straight back;
// when the pool sits in the disk tier, the leader promotes it, and a
// promotion generates nothing a joiner could share. Both drain at once
// (see drainPool for the rule).
//
// Async execution rides the same path: SubmitJob validates up front,
// records a job, and runs the query on its own goroutine with unbounded
// admission (the jobs table is its queue). Shutdown closes admission —
// queued-but-unadmitted work is rejected with ErrShuttingDown, admitted
// work drains, and finished job results stay readable.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/imm"
)

// admitMode selects a query's admission behavior.
type admitMode int

const (
	// admitBounded is the synchronous /query contract: join the wait
	// queue if it has room, fail fast with ErrOverloaded otherwise, and
	// give up with ErrShuttingDown when shutdown begins.
	admitBounded admitMode = iota
	// admitBatch is the /batch contract: members wait for a worker slot
	// without the queue bound (the batch body, capped by the handler, is
	// their queue), but shutdown still rejects the not-yet-admitted
	// remainder — their failure is reported inline.
	admitBatch
	// admitJob is the async contract: the job was accepted at submit
	// time, so it waits for a slot unconditionally — shutdown drains it
	// to completion instead of failing it.
	admitJob
)

// admission is the bounded query worker pool: slots cap concurrent
// execution, waiting/maxWait bound the queue of queries blocked on a
// free slot.
type admission struct {
	slots chan struct{}

	mu      sync.Mutex
	waiting int
	maxWait int
}

func newAdmission(workers, queue int) *admission {
	return &admission{slots: make(chan struct{}, workers), maxWait: queue}
}

// acquire takes a worker slot, waiting (or failing) per mode.
func (a *admission) acquire(mode admitMode, closed <-chan struct{}) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	a.mu.Lock()
	if mode == admitBounded && a.waiting >= a.maxWait {
		a.mu.Unlock()
		return fmt.Errorf("serve: %w: %d queries executing and %d waiting", ErrOverloaded, cap(a.slots), a.waiting)
	}
	a.waiting++
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
	}()
	if mode == admitJob {
		a.slots <- struct{}{}
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-closed:
		return fmt.Errorf("serve: %w", ErrShuttingDown)
	}
}

func (a *admission) release() { <-a.slots }

// gauges returns (in-flight, queued) for Stats.
func (a *admission) gauges() (int, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.slots), a.waiting
}

// batchWaiter is one query waiting to be answered by its pool's next
// batch drain.
type batchWaiter struct {
	req  QueryRequest
	done chan struct{}
	res  *QueryResult
	err  error
}

// begin registers one unit of accepted work for shutdown draining,
// rejecting it when shutdown has already begun.
func (s *Server) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: %w", ErrShuttingDown)
	}
	s.wg.Add(1)
	return nil
}

func (s *Server) end() { s.wg.Done() }

// Shutdown stops admitting work and drains what was accepted: new
// queries and job submissions fail with ErrShuttingDown, synchronous
// queries and batch members still waiting at admission are rejected
// cleanly, while in-flight batches and every already-submitted job —
// queued or running — run to completion, and finished job results
// remain readable (Job, Jobs, Stats, and Graphs never close). It
// returns nil once every accepted unit of work has finished, or
// ctx.Err() if the context expires first (the work keeps draining in
// the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closedCh)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drainPool is the batch leader's loop: wait out the gather window,
// then answer the pool's whole wait queue batch by batch until it is
// empty. The leader is itself a member of the first batch.
//
// The leader skips the window when no joiner could share its work: when
// the pool's previous drain answered exactly one query from the
// resident pool, grew nothing, and ended less than one window ago
// (poolEntry.soloDone) — a sequential client coming straight back — and
// when the pool is on disk, since a promotion generates nothing (nor
// does the cold rebuild a failed promotion falls through to wait).
// Every other leader waits, so a burst still gathers into one shared
// extension; a query arriving mid-drain is answered by the next sweep.
func (s *Server) drainPool(ge *graphEntry, pe *poolEntry) {
	if w := s.opt.GatherWindow; w > 0 && !pe.cameBack(w) && s.stateOf(pe) != poolOnDisk {
		time.Sleep(w)
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	answered, plain := 0, true
	for {
		pe.qmu.Lock()
		batch := pe.waiters
		if len(batch) == 0 {
			pe.draining = false
			pe.soloDone = time.Time{}
			if answered == 1 && plain {
				pe.soloDone = time.Now()
			}
			pe.qmu.Unlock()
			return
		}
		pe.waiters = nil
		pe.qmu.Unlock()
		answered += len(batch)
		if !s.runBatch(ge, pe, batch) {
			plain = false
		}
	}
}

// runBatch answers one drained batch on the pool's engine and reports
// whether the answer was plain: the pool was resident and nothing was
// extended or failed. Callers hold pe.mu. Per-member validation already
// happened at query entry, so an engine error here is a genuine
// server-side failure shared by every member.
func (s *Server) runBatch(ge *graphEntry, pe *poolEntry, batch []*batchWaiter) (plain bool) {
	fail := func(err error) bool {
		for _, w := range batch {
			w.err = err
			close(w.done)
		}
		return false
	}
	opt := s.queryOptions(batch[0].req)
	eng := pe.eng
	resident := eng != nil
	if eng == nil {
		// Disk tier first: a demoted or rehydrated pool promotes via
		// mmap instead of regenerating — still warm, zero generated
		// sets, byte-identical answers (the freeze/thaw contract).
		eng = s.tryPromote(ge, pe, opt)
	}
	warm := eng != nil
	if eng == nil {
		// Snapshot the registry's current graph and epoch under the
		// server mutex: a concurrent delta swaps ge.g, and its repair
		// pass finds engines built against the pre-swap graph by the
		// epoch recorded here.
		s.mu.Lock()
		g := ge.g
		pe.epoch = ge.info.Epoch
		s.mu.Unlock()
		built, err := imm.NewWarmEngine(g, opt)
		if err != nil {
			return fail(err)
		}
		if s.opt.RemoteGen != nil {
			// Cluster mode: let worker ranks generate this pool's slot
			// chunks. Slot determinism keeps the pool — and every answer
			// from it — byte-identical to local generation, so this is
			// purely a placement decision.
			if err := built.SetRemote(s.opt.RemoteGen(ge.info.Name, g, opt)); err != nil {
				return fail(err)
			}
		}
		// An entry RemoveGraph took meanwhile refuses the engine; this
		// batch is still answered from it, and then it goes.
		s.mu.Lock()
		s.moveLocked(pe, move{to: poolWarm, disk: pe.disk, eng: built})
		s.mu.Unlock()
		eng = built
	}
	queries := make([]imm.BatchQuery, len(batch))
	for i, w := range batch {
		queries[i] = imm.BatchQuery{K: w.req.K, Epsilon: w.req.Epsilon}
	}
	rep, err := eng.AnswerBatch(opt, queries)
	if err != nil {
		return fail(err)
	}

	var sharedSets, selections, memoHits int64
	for i, w := range batch {
		a := rep.Answers[i]
		w.res = &QueryResult{
			Graph:   w.req.Graph,
			Model:   ge.info.Model,
			K:       w.req.K,
			Epsilon: w.req.Epsilon,
			Seed:    w.req.Seed,

			Seeds:    a.Res.Seeds,
			Theta:    a.Res.Theta,
			Rounds:   a.Res.Rounds,
			Coverage: a.Res.Coverage,

			Warm:          warm,
			BatchSize:     len(batch),
			ReusedSets:    a.ReusedSets,
			GeneratedSets: a.GeneratedSets,
			SharedSets:    a.SharedSets,
			ReusedBytes:   a.ReusedBytes,
			MemoHits:      a.MemoHits,
			PoolBytes:     rep.PoolBytes,
		}
		sharedSets += a.SharedSets
		selections += a.Selections
		memoHits += a.MemoHits
		close(w.done)
	}

	s.mu.Lock()
	s.stats.Batches++
	s.stats.SelectionMemoHits += memoHits
	s.stats.SelectionMemoMisses += selections - memoHits
	if len(batch) > s.stats.MaxBatchSize {
		s.stats.MaxBatchSize = len(batch)
	}
	if len(batch) > 1 {
		s.stats.BatchedQueries += int64(len(batch))
		s.stats.SharedExtensions += int64(rep.Extensions)
		s.stats.SharedSets += sharedSets
	}
	s.mu.Unlock()
	return resident && rep.Extensions == 0
}

// BatchItem is one member's outcome in a QueryBatch answer: exactly one
// of Result and Error is set; Code accompanies Error with the same
// machine-readable code the error envelope carries, so batch clients
// dispatch on member failures without string matching.
type BatchItem struct {
	Result *QueryResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
	Code   string       `json:"code,omitempty"`
}

// QueryBatch answers many queries in one call. Members run through the
// regular planner concurrently, so members that target the same (graph,
// seed) pool gather into shared-extension batches; members targeting
// different pools simply run in parallel. Members wait for worker slots
// without the bounded queue's rejection — the batch body (capped by
// the HTTP handler) is their queue, so a well-formed batch larger than
// the admission capacity executes in waves instead of partially
// failing with overload errors or crowding synchronous queries out of
// the wait queue. Failures are reported per member — one bad request
// does not poison its neighbors.
func (s *Server) QueryBatch(reqs []QueryRequest) []BatchItem {
	items := make([]BatchItem, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.query(reqs[i], admitBatch)
			if err != nil {
				items[i].Error = err.Error()
				items[i].Code = codeForError(err)
				return
			}
			items[i].Result = res
		}(i)
	}
	wg.Wait()
	return items
}

// JobState is the lifecycle of an async query.
type JobState string

const (
	// JobQueued means the job is accepted but not yet executing.
	JobQueued JobState = "queued"
	// JobRunning means the job's query is admitted or waiting for a
	// worker slot.
	JobRunning JobState = "running"
	// JobDone means the job finished and Result is set.
	JobDone JobState = "done"
	// JobFailed means the job finished and Error is set.
	JobFailed JobState = "failed"
)

// Job is the public view of one async query — what GET /jobs/{id}
// returns.
type Job struct {
	ID      string       `json:"id"`
	State   JobState     `json:"state"`
	Request QueryRequest `json:"request"`
	Result  *QueryResult `json:"result,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// jobEntry is the registry record of one job; the embedded Job is
// guarded by Server.mu.
type jobEntry struct {
	seq int64
	job Job
}

// maxRetainedJobs bounds the jobs table: when a submission would exceed
// it, the oldest finished job is pruned; when none has finished, the
// submission is refused (queued and running jobs are never dropped).
const maxRetainedJobs = 4096

// SubmitJob validates req, registers an async job for it, and starts
// executing on a background goroutine. The job waits for a worker slot
// without the bounded queue's rejection — the jobs table is its queue —
// which is what makes it the right front door for long cold queries
// during bursts; a job accepted here runs to completion even if
// Shutdown begins while it is still waiting for a slot (Shutdown's
// drain covers it). Poll the returned id with Job. A table holding
// maxRetainedJobs unfinished jobs refuses the submission with
// ErrOverloaded.
func (s *Server) SubmitJob(req QueryRequest) (Job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("serve: %w", ErrShuttingDown)
	}
	if _, err := s.checkRequestLocked(req); err != nil {
		s.mu.Unlock()
		return Job{}, err
	}
	if !s.pruneJobsLocked() {
		s.stats.Rejected++
		s.mu.Unlock()
		return Job{}, fmt.Errorf("serve: %w: %d jobs queued or running", ErrOverloaded, len(s.jobs))
	}
	s.jobSeq++
	id := fmt.Sprintf("job-%d", s.jobSeq)
	je := &jobEntry{seq: s.jobSeq, job: Job{ID: id, State: JobQueued, Request: req}}
	s.jobs[id] = je
	s.stats.JobsSubmitted++
	s.wg.Add(1)         // the job goroutine is accepted work: Shutdown waits for it
	submitted := je.job // copy before unlocking: the goroutine mutates je.job
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		s.mu.Lock()
		je.job.State = JobRunning
		s.mu.Unlock()
		res, err := s.query(req, admitJob)
		s.mu.Lock()
		if err != nil {
			je.job.State = JobFailed
			je.job.Error = err.Error()
			s.stats.JobsFailed++
		} else {
			je.job.State = JobDone
			je.job.Result = res
			s.stats.JobsDone++
		}
		s.mu.Unlock()
	}()
	return submitted, nil
}

// Job returns the current view of one async job.
func (s *Server) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	je, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return je.job, true
}

// Jobs lists every retained job, oldest first.
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*jobEntry, 0, len(s.jobs))
	for _, je := range s.jobs {
		out = append(out, je)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	jobs := make([]Job, len(out))
	for i, je := range out {
		jobs[i] = je.job
	}
	return jobs
}

// pruneJobsLocked makes room for one more job: when the table is at its
// retention cap it evicts the oldest finished job, and reports false if
// there is none.
func (s *Server) pruneJobsLocked() bool {
	if len(s.jobs) < maxRetainedJobs {
		return true
	}
	var victim *jobEntry
	for _, je := range s.jobs {
		if je.job.State != JobDone && je.job.State != JobFailed {
			continue
		}
		if victim == nil || je.seq < victim.seq {
			victim = je
		}
	}
	if victim == nil {
		return false
	}
	delete(s.jobs, victim.job.ID)
	return true
}

package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
)

// Request is the submission body of POST /v1/jobs: which targets to audit,
// in which modes, at what parallelism. Unknown fields are rejected — a
// misspelled option must fail loudly, not silently audit with defaults.
type Request struct {
	// Targets lists registry names to audit; at least one is required.
	Targets []string `json:"targets"`
	// Modes lists analysis modes per target; empty means optimized only.
	Modes []string `json:"modes,omitempty"`
	// Parallelism is the worker count the job asks for; it is clamped to
	// [1, the daemon's global -j budget] and the whole amount is leased from
	// that budget while the job runs.
	Parallelism int `json:"parallelism,omitempty"`
}

// Job states reported by the status endpoint and the done event.
const (
	stateQueued    = "queued"    // waiting for worker-budget admission
	stateRunning   = "running"   // sessions in flight
	stateDone      = "done"      // all units ran (individual units may have failed)
	stateCancelled = "cancelled" // cancelled by the client or a daemon drain
	stateFailed    = "failed"    // the job itself failed (e.g. bundle store error)
)

// job is one submitted audit: one campaign over the request's target×mode
// units, run under a single worker lease.
type job struct {
	id     string
	client string
	req    Request
	opts   campaign.Options // the planned campaign; opts.Jobs is the lease

	ctx    context.Context
	cancel context.CancelFunc
	bcast  *broadcaster
	done   chan struct{} // closed by finishJob, after the last publish

	created time.Time

	mu      sync.Mutex
	state   string
	err     string
	started map[string]bool // unit keys that reached PhaseExtract
	runs    []campaign.RunManifest
	classes int
	bundle  string // content hash once persisted
}

// UnitStatus is the wire shape of one target×mode unit in a job status.
type UnitStatus struct {
	Key       string `json:"key"`
	Classes   int    `json:"classes"`
	Truncated bool   `json:"truncated,omitempty"`
	WallMS    int64  `json:"wall_ms"`
	Error     string `json:"error,omitempty"`
}

// JobStatus is the wire shape of GET /v1/jobs/{id} and the done event.
type JobStatus struct {
	ID          string       `json:"id"`
	Client      string       `json:"client"`
	State       string       `json:"state"`
	Targets     []string     `json:"targets"`
	Modes       []string     `json:"modes"`
	Parallelism int          `json:"parallelism"`
	CreatedAt   string       `json:"created_at"`
	Units       []UnitStatus `json:"units,omitempty"`
	Classes     int          `json:"classes"`
	Bundle      string       `json:"bundle,omitempty"`
	Error       string       `json:"error,omitempty"`
	// EventsURL is the SSE endpoint for this job's event stream — see the
	// events endpoint contract for replay and slow-consumer semantics.
	EventsURL string `json:"events_url"`
}

// planJob turns a request into the campaign options achilles-audit run
// would build from the same targets, modes and -j, and validates them with
// campaign.Plan — so a daemon bundle is a CLI bundle by construction.
func (s *Server) planJob(req Request) (campaign.Options, error) {
	if len(req.Targets) == 0 {
		// An empty campaign target list means the whole registry; a request
		// must name what it audits.
		return campaign.Options{}, fmt.Errorf("request selects no target")
	}
	var modes []core.Mode
	for _, name := range req.Modes {
		if name == "" {
			return campaign.Options{}, fmt.Errorf("empty mode name")
		}
		m, err := core.ParseMode(name)
		if err != nil {
			return campaign.Options{}, err
		}
		modes = append(modes, m)
	}
	opts := campaign.Options{
		Targets: req.Targets,
		Modes:   modes,
		Jobs:    min(max(req.Parallelism, 1), s.cfg.Workers),
		Solver:  s.solver,
		Extra:   s.cfg.Extra,
	}
	if _, err := campaign.Plan(opts); err != nil {
		return campaign.Options{}, err
	}
	return opts, nil
}

// runJob is the job goroutine: lease workers from the global budget, run
// the campaign, persist the bundle, publish the terminal state.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	defer s.releaseClient(j.client)

	// Admission: the whole lease is granted atomically and FIFO (see wsem),
	// so a queued job can never deadlock against another partial acquirer
	// and never starves behind a stream of small jobs. A job cancelled while
	// queued still runs its campaign, on the dead context: RunCtx records
	// every unit as interrupted, so the artifact stays complete.
	if err := s.sem.acquire(j.ctx, j.opts.Jobs); err == nil {
		defer s.sem.release(j.opts.Jobs)
		s.setJobState(j, stateRunning)
	}
	b, err := campaign.RunCtx(j.ctx, j.opts)
	s.finishJob(j, b, err)
}

// finishJob persists the campaign's bundle in the content-addressed store,
// records the terminal state and closes done. Every publish happens before
// done closes, so an SSE handler that sees done can drain its channel and
// know the stream is complete.
func (s *Server) finishJob(j *job, b *campaign.Bundle, err error) {
	state, jobErr, hash := stateFailed, "", ""
	if b == nil {
		// RunCtx refused the plan planJob accepted.
		jobErr = fmt.Sprintf("plan campaign: %v", err)
	} else if hash, err = s.store.Put(b); err != nil {
		jobErr = fmt.Sprintf("persist bundle: %v", err)
	} else {
		s.metrics.bundlesStored.Add(1)
		state = stateDone
		if b.Manifest.Interrupted {
			state = stateCancelled
		}
	}

	j.mu.Lock()
	j.state = state
	j.err = jobErr
	j.bundle = hash
	if b != nil {
		j.runs = b.Manifest.Runs
		for _, rm := range j.runs {
			j.classes += rm.Classes
			if j.started[rm.Key()] && strings.HasPrefix(rm.Error, "interrupted") {
				s.metrics.sessionsCancelled.Add(1)
			}
		}
	}
	j.mu.Unlock()

	switch state {
	case stateDone:
		s.metrics.jobsDone.Add(1)
	case stateCancelled:
		s.metrics.jobsCancelled.Add(1)
	case stateFailed:
		s.metrics.jobsFailed.Add(1)
	}
	// Retention runs before the done event goes out, so a client that saw a
	// job finish observes the post-eviction job table.
	s.evictTerminalJobs()
	j.bcast.publish(jsonEvent(eventState, stateEventPayload{ID: j.id, State: state}), true)
	close(j.done)
}

// setJobState records a non-terminal transition and publishes it.
func (s *Server) setJobState(j *job, state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
	j.bcast.publish(jsonEvent(eventState, stateEventPayload{ID: j.id, State: state}), true)
}

// jobStatus snapshots a job for the status endpoint and the done event.
func (s *Server) jobStatus(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := JobStatus{
		ID:          j.id,
		Client:      j.client,
		State:       j.state,
		Targets:     append([]string{}, j.req.Targets...),
		Modes:       append([]string{}, j.req.Modes...),
		Parallelism: j.opts.Jobs,
		CreatedAt:   j.created.UTC().Format(time.RFC3339),
		Classes:     j.classes,
		Bundle:      j.bundle,
		Error:       j.err,
		EventsURL:   "/v1/jobs/" + j.id + "/events",
	}
	for _, rm := range j.runs {
		out.Units = append(out.Units, UnitStatus{
			Key:       rm.Key(),
			Classes:   rm.Classes,
			Truncated: rm.Truncated,
			WallMS:    rm.WallMS,
			Error:     rm.Error,
		})
	}
	return out
}

// wsem is a FIFO weighted semaphore over the daemon's global worker budget.
// Leases are granted atomically (all n tokens or none), which rules out the
// partial-acquisition deadlock of counting semaphores, and strictly in
// arrival order, so a wide job is never starved by a stream of narrow ones.
type wsem struct {
	mu      sync.Mutex
	avail   int
	waiters []*wsemWaiter
}

type wsemWaiter struct {
	n     int
	ready chan struct{}
}

func newWsem(capacity int) *wsem { return &wsem{avail: capacity} }

// acquire leases n tokens, blocking FIFO until they are free or ctx ends.
func (s *wsem) acquire(ctx context.Context, n int) error {
	s.mu.Lock()
	if len(s.waiters) == 0 && s.avail >= n {
		s.avail -= n
		s.mu.Unlock()
		return nil
	}
	w := &wsemWaiter{n: n, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		granted := true
		for i, q := range s.waiters {
			if q == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				granted = false
				break
			}
		}
		if !granted {
			// Leaving the queue can unblock it: a waiter behind the
			// cancelled one whose demand already fits must be granted now,
			// not when some unrelated holder eventually releases.
			s.grantLocked()
		}
		s.mu.Unlock()
		if granted {
			// The grant raced the cancellation: hand the lease back.
			s.release(n)
		}
		return ctx.Err()
	}
}

// release returns n tokens and grants queued waiters in FIFO order.
func (s *wsem) release(n int) {
	s.mu.Lock()
	s.avail += n
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked grants head waiters in FIFO order while they fit the
// available tokens. Callers hold s.mu.
func (s *wsem) grantLocked() {
	for len(s.waiters) > 0 && s.waiters[0].n <= s.avail {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.avail -= w.n
		close(w.ready)
	}
}

// Package serve is the audit-as-a-service layer behind cmd/achillesd: an
// HTTP daemon that turns the one-shot Achilles pipeline into a long-running,
// multi-tenant service.
//
// Clients submit audit jobs — targets, modes and a parallelism, as JSON —
// and get back a job ID. A job is one campaign: the daemon builds the
// campaign.Options achilles-audit run would build from the same inputs and
// runs campaign.RunCtx under one lease from the global worker budget (a
// FIFO all-or-nothing lease over the -j knob, so jobs queue instead of
// oversubscribing and a wide job is never starved). It streams
// phase/trojan/progress events to any number of clients as server-sent
// events (each unit's Observer maps 1:1 onto SSE), enforces per-client
// concurrent-job quotas with backpressure (429 + Retry-After), and persists
// every campaign's bundle in a content-addressed store — the bundle
// achilles-audit run writes for the same inputs, by construction, which
// extends the standing determinism invariant to the wire. /healthz and
// Prometheus-style /metrics make it operable behind a load balancer.
//
// Endpoints:
//
//	POST /v1/jobs                          submit (202 + job status)
//	GET  /v1/jobs                          list jobs
//	GET  /v1/jobs/{id}                     job status
//	GET  /v1/jobs/{id}/events              SSE stream (replay + live + done)
//	POST /v1/jobs/{id}/cancel              cancel (idempotent)
//	GET  /v1/bundles                       list stored bundles
//	GET  /v1/bundles/{hash}                bundle manifest
//	GET  /v1/bundles/{hash}/files/{name}   raw bundle member (manifest/JSONL)
//	GET  /v1/diff?old=H1&new=H2            class-level bundle diff
//	GET  /healthz                          200 ok / 503 draining
//	GET  /metrics                          Prometheus text format
//
// Shutdown drains gracefully: new submissions are refused with 503, every
// in-flight session is cancelled mid-frontier, interrupted bundles are
// still persisted (flagged Interrupted, refused as baselines — the campaign
// invariant), event streams end with a terminal done event, and Shutdown
// returns once every job goroutine has unwound. See DESIGN.md, "The serving
// layer".
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"

	"context"
)

// Config configures a Server.
type Config struct {
	// Workers is the global analysis worker budget (the -j knob) shared by
	// every concurrent session; values < 1 mean 1.
	Workers int
	// ClientQuota is the maximum number of in-flight (queued or running)
	// jobs per client; submissions beyond it get 429 + Retry-After. Values
	// < 1 mean 4.
	ClientQuota int
	// StoreDir is the content-addressed bundle store root (required).
	StoreDir string
	// Solver is the shared solver kept warm across all sessions; nil means
	// solver.Default().
	Solver *solver.Solver
	// Extra lists descriptors resolvable in addition to the global
	// registry, passed on as campaign.Options.Extra (aliases are ignored).
	// Tests inject synthetic targets here.
	Extra []registry.Descriptor
	// MaxTerminalJobs caps how many terminal (done/cancelled/failed) jobs
	// the daemon keeps in its job table for status queries and event
	// replay. Beyond the cap the oldest terminal jobs are evicted — along
	// with their event histories — so a long-running daemon does not grow
	// without bound under sustained submissions; the bundles in the store
	// remain the durable record. Values < 1 mean 512.
	MaxTerminalJobs int
}

// Server is one achillesd instance. Create with New, mount Handler, drain
// with Shutdown.
type Server struct {
	cfg     Config
	solver  *solver.Solver
	sem     *wsem
	store   *Store
	metrics metrics
	mux     *http.ServeMux

	mu        sync.Mutex
	draining  bool
	nextID    int
	jobs      map[string]*job
	order     []string // submission order, for stable listings
	perClient map[string]int
	wg        sync.WaitGroup
}

// New builds a Server; the store directory is created if needed.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.ClientQuota < 1 {
		cfg.ClientQuota = 4
	}
	if cfg.MaxTerminalJobs < 1 {
		cfg.MaxTerminalJobs = 512
	}
	store, err := newStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		solver:    cfg.Solver,
		sem:       newWsem(cfg.Workers),
		store:     store,
		jobs:      map[string]*job{},
		perClient: map[string]int{},
	}
	if s.solver == nil {
		s.solver = solver.Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/bundles", s.handleListBundles)
	mux.HandleFunc("GET /v1/bundles/{hash}", s.handleBundleManifest)
	mux.HandleFunc("GET /v1/bundles/{hash}/files/{name}", s.handleBundleFile)
	mux.HandleFunc("GET /v1/diff", s.handleDiff)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain starts a graceful shutdown without waiting for it: new submissions
// are refused (503, and /healthz flips to 503) and every non-terminal job
// is cancelled, so running sessions unwind mid-frontier, interrupted
// bundles get persisted, and open event streams end with their terminal
// done event on their own. Callers that front the Server with an
// http.Server must Drain before http.Server.Shutdown — SSE connections
// only go idle once their job is terminal, so the reverse order blocks the
// HTTP shutdown on live streams for its whole deadline. Safe to call more
// than once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	for _, j := range js {
		j.cancel()
	}
}

// Shutdown drains the daemon (see Drain) and blocks until all job
// goroutines have finished or ctx expires. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// errorBody is the uniform JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clientKey identifies the submitting client for quota accounting: the
// X-Achilles-Client header when present (how real deployments pass a tenant
// ID through a proxy), else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Achilles-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// handleSubmit is POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return
	}
	opts, err := s.planJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	client := clientKey(r)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	if s.perClient[client] >= s.cfg.ClientQuota {
		s.mu.Unlock()
		s.metrics.quotaRejections.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("client %q has %d job(s) in flight (quota %d)", client, s.cfg.ClientQuota, s.cfg.ClientQuota))
		return
	}
	s.perClient[client]++
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      id,
		client:  client,
		req:     req,
		opts:    opts,
		ctx:     ctx,
		cancel:  cancel,
		bcast:   newBroadcaster(eventBuffer, &s.metrics.eventDrops),
		done:    make(chan struct{}),
		created: time.Now(),
		state:   stateQueued,
		started: map[string]bool{},
	}
	j.opts.Observe = j.observe
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()

	j.bcast.publish(jsonEvent(eventState, stateEventPayload{ID: id, State: stateQueued}), true)
	go s.runJob(j)
	writeJSON(w, http.StatusAccepted, s.jobStatus(j))
}

// releaseClient returns one quota slot when a job reaches a terminal state.
func (s *Server) releaseClient(client string) {
	s.mu.Lock()
	if s.perClient[client] > 1 {
		s.perClient[client]--
	} else {
		delete(s.perClient, client)
	}
	s.mu.Unlock()
}

// getJob resolves a job ID; nil when unknown.
func (s *Server) getJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// evictTerminalJobs enforces Config.MaxTerminalJobs: once more terminal
// jobs than the cap sit in the job table, the oldest are dropped from the
// table and the submission order — their broadcaster histories with them —
// so the daemon's memory stays bounded under sustained traffic. Evicted
// jobs answer 404 afterwards; their bundles in the content-addressed store
// are the durable record. Queued and running jobs are never evicted.
func (s *Server) evictTerminalJobs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	terminal := make([]string, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st == stateDone || st == stateCancelled || st == stateFailed {
			terminal = append(terminal, id)
		}
	}
	excess := len(terminal) - s.cfg.MaxTerminalJobs
	if excess <= 0 {
		return
	}
	drop := make(map[string]bool, excess)
	for _, id := range terminal[:excess] {
		drop[id] = true
		delete(s.jobs, id)
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if !drop[id] {
			kept = append(kept, id)
		}
	}
	s.order = kept
}

// handleJobStatus is GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.jobStatus(j))
}

// handleListJobs is GET /v1/jobs.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string{}, s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j := s.getJob(id); j != nil {
			out = append(out, s.jobStatus(j))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCancel is POST /v1/jobs/{id}/cancel: idempotent, returns the status
// snapshot taken right after the cancel landed (the job may still be
// unwinding — poll status or consume the event stream for the terminal
// state).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, s.jobStatus(j))
}

// BundleInfo is one stored bundle in the listing.
type BundleInfo struct {
	Hash        string `json:"hash"`
	CreatedAt   string `json:"created_at"`
	Jobs        int    `json:"jobs"`
	Classes     int    `json:"classes"`
	Interrupted bool   `json:"interrupted,omitempty"`
}

// handleListBundles is GET /v1/bundles.
func (s *Server) handleListBundles(w http.ResponseWriter, r *http.Request) {
	listed, err := s.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := make([]BundleInfo, 0, len(listed))
	for _, lb := range listed {
		classes := 0
		for _, rm := range lb.Manifest.Runs {
			classes += rm.Classes
		}
		out = append(out, BundleInfo{
			Hash:        lastPathElement(lb.Dir),
			CreatedAt:   lb.Manifest.CreatedAt,
			Jobs:        len(lb.Manifest.Runs),
			Classes:     classes,
			Interrupted: lb.Manifest.Interrupted,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	writeJSON(w, http.StatusOK, out)
}

// handleBundleManifest is GET /v1/bundles/{hash}: the raw manifest.json.
func (s *Server) handleBundleManifest(w http.ResponseWriter, r *http.Request) {
	s.serveBundleFile(w, r.PathValue("hash"), campaign.ManifestName)
}

// handleBundleFile is GET /v1/bundles/{hash}/files/{name}: a raw bundle
// member, byte-identical to the file achilles-audit would have written.
func (s *Server) handleBundleFile(w http.ResponseWriter, r *http.Request) {
	s.serveBundleFile(w, r.PathValue("hash"), r.PathValue("name"))
}

func (s *Server) serveBundleFile(w http.ResponseWriter, hash, name string) {
	path, err := s.store.FilePath(hash, name)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeError(w, http.StatusNotFound, "no such bundle file")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// DiffResult is the wire shape of GET /v1/diff.
type DiffResult struct {
	Old    string `json:"old"`
	New    string `json:"new"`
	Empty  bool   `json:"empty"`
	Render string `json:"render"`
}

// handleDiff is GET /v1/diff?old=H1&new=H2: the class-level diff of two
// stored bundles (appeared / disappeared / changed), the same comparison
// achilles-audit diff performs.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	oldH, newH := r.URL.Query().Get("old"), r.URL.Query().Get("new")
	if oldH == "" || newH == "" {
		writeError(w, http.StatusBadRequest, "need old= and new= bundle hashes")
		return
	}
	load := func(h string) (*campaign.Bundle, int, error) {
		b, err := s.store.Get(h)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, http.StatusNotFound, fmt.Errorf("no such bundle %q", h)
			}
			return nil, http.StatusBadRequest, err
		}
		return b, 0, nil
	}
	oldB, code, err := load(oldH)
	if err != nil {
		writeError(w, code, err.Error())
		return
	}
	newB, code, err := load(newH)
	if err != nil {
		writeError(w, code, err.Error())
		return
	}
	d := campaign.Diff(oldB, newB)
	writeJSON(w, http.StatusOK, DiffResult{Old: oldH, New: newH, Empty: d.Empty(), Render: d.Render()})
}

// handleHealthz is GET /healthz: 200 while serving, 503 while draining (so
// a load balancer stops routing to an instance being rolled).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// lastPathElement is filepath.Base without importing path/filepath here.
func lastPathElement(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' || p[i] == os.PathSeparator {
			return p[i+1:]
		}
	}
	return p
}

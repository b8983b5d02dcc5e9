package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"achilles/internal/campaign"
	"achilles/internal/core"
)

// SSE event names emitted on a job's event stream, in the order a client
// sees them: job state transitions, per-unit pipeline phases, Trojan classes
// the moment they are confirmed, periodic progress, and one final done
// event carrying the job's terminal status.
const (
	eventState    = "state"
	eventPhase    = "phase"
	eventTrojan   = "trojan"
	eventProgress = "progress"
	eventDone     = "done"
)

// sseEvent is one rendered server-sent event: a name and a single-line JSON
// payload. Events are rendered once at publish time and shared by every
// subscriber.
type sseEvent struct {
	name string
	data []byte
}

// eventBuffer is the per-subscriber SSE buffer; a consumer further behind
// loses events (drop-counted in achillesd_event_stream_drops_total).
const eventBuffer = 1024

// broadcaster fans a job's events out to any number of SSE subscribers with
// the same never-block contract as achilles.Session.Events: a subscriber
// whose buffer is full loses the event (counted in drops), the analysis is
// never stalled by a slow client. Durable events (state, phase, trojan) are
// kept in a replay history so a subscriber that attaches after submission —
// or after completion — still sees every discovery; progress events are
// ephemeral and go to live subscribers only.
type broadcaster struct {
	buf   int
	drops *atomic.Int64 // shared server-wide event-drop counter

	mu      sync.Mutex
	history []sseEvent
	subs    map[chan sseEvent]struct{}
}

func newBroadcaster(buf int, drops *atomic.Int64) *broadcaster {
	return &broadcaster{buf: buf, drops: drops, subs: map[chan sseEvent]struct{}{}}
}

// publish renders nothing itself — the caller passes the finished event.
// Durable events join the replay history before live delivery, under the
// same lock as subscribe, so every subscriber sees each durable event
// exactly once (replayed or live, never both, never neither).
func (b *broadcaster) publish(ev sseEvent, durable bool) {
	b.mu.Lock()
	if durable {
		b.history = append(b.history, ev)
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			b.drops.Add(1)
		}
	}
	b.mu.Unlock()
}

// subscribe registers a live channel and returns the durable history to
// replay first. The returned cancel is idempotent and must be called when
// the subscriber disconnects.
func (b *broadcaster) subscribe() (replay []sseEvent, ch chan sseEvent, cancel func()) {
	ch = make(chan sseEvent, b.buf)
	b.mu.Lock()
	replay = append([]sseEvent{}, b.history...)
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	var once sync.Once
	return replay, ch, func() {
		once.Do(func() {
			b.mu.Lock()
			delete(b.subs, ch)
			b.mu.Unlock()
		})
	}
}

// jsonEvent marshals v into an sseEvent; marshal failures are programming
// errors (all payloads are plain structs) and panic loudly in tests.
func jsonEvent(name string, v any) sseEvent {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal %s event: %v", name, err))
	}
	return sseEvent{name: name, data: data}
}

// stateEventPayload is the payload of a job-level state transition.
type stateEventPayload struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// phaseEventPayload marks one unit entering a pipeline phase.
type phaseEventPayload struct {
	Unit  string `json:"unit"`
	Phase string `json:"phase"`
}

// trojanEventPayload carries one confirmed Trojan class, tagged with the
// unit (target/mode) that produced it. Class is the canonical class line —
// byte-identical to the bundle and golden-corpus format.
type trojanEventPayload struct {
	Unit        string  `json:"unit"`
	Class       string  `json:"class"`
	ClassID     string  `json:"class_id"`
	Fingerprint string  `json:"fingerprint"`
	Witness     string  `json:"witness"`
	Concrete    []int64 `json:"concrete"`
	Verified    bool    `json:"verified"`
}

// progressEventPayload is a periodic snapshot of a running unit.
type progressEventPayload struct {
	Unit          string  `json:"unit"`
	Phase         string  `json:"phase"`
	ElapsedMS     int64   `json:"elapsed_ms"`
	States        int     `json:"states"`
	FrontierDepth int     `json:"frontier_depth"`
	Trojans       int     `json:"trojans"`
	SolverQueries int     `json:"solver_queries"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
}

// observe is the job's campaign.Options.Observe: it bridges one unit's
// Observer callbacks onto the job's broadcaster, tagged with the unit key,
// and records that the unit started. Callbacks fire synchronously from
// analysis workers, so everything here must be non-blocking — publish is
// (drop-counted sends).
func (j *job) observe(u campaign.Job) core.Observer {
	unitKey := u.Key()
	return core.Observer{
		OnPhase: func(phase string) {
			if phase == core.PhaseExtract {
				j.mu.Lock()
				j.started[unitKey] = true
				j.mu.Unlock()
			}
			j.bcast.publish(jsonEvent(eventPhase, phaseEventPayload{Unit: unitKey, Phase: phase}), true)
		},
		OnTrojan: func(tr core.TrojanReport) {
			j.bcast.publish(jsonEvent(eventTrojan, trojanEventPayload{
				Unit:        unitKey,
				Class:       tr.ClassLine(),
				ClassID:     tr.ClassID(),
				Fingerprint: tr.Fingerprint(),
				Witness:     tr.Witness.String(),
				Concrete:    tr.Concrete,
				Verified:    tr.VerifiedAccept && tr.VerifiedNotClient,
			}), true)
		},
		OnProgress: func(p core.Progress) {
			j.bcast.publish(jsonEvent(eventProgress, progressEventPayload{
				Unit:          unitKey,
				Phase:         p.Phase,
				ElapsedMS:     p.Elapsed.Milliseconds(),
				States:        p.StatesExplored,
				FrontierDepth: p.FrontierDepth,
				Trojans:       p.Trojans,
				SolverQueries: p.SolverQueries,
				CacheHitRate:  p.CacheHitRate,
			}), false)
		},
	}
}

// handleEvents is GET /v1/jobs/{id}/events: the job's event stream as
// server-sent events. The handler replays the durable history (so attaching
// late or re-attaching never misses a discovery), then streams live events
// until the job ends, and closes the stream after one final "done" event
// carrying the terminal job status. A consumer that falls more than
// eventBuffer events behind loses progress/overflow events — counted in the
// achillesd_event_stream_drops_total metric — but never stalls the analysis,
// and the done event and persisted bundle are always complete.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, ch, cancel := j.bcast.subscribe()
	defer cancel()
	write := func(ev sseEvent) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
	}
	for _, ev := range replay {
		write(ev)
	}
	fl.Flush()

	finish := func() {
		// The job is over and finishJob published everything before closing
		// done, so the channel holds a bounded remainder: drain it, then end
		// the stream with the terminal status.
		for {
			select {
			case ev := <-ch:
				write(ev)
			default:
				write(jsonEvent(eventDone, s.jobStatus(j)))
				fl.Flush()
				return
			}
		}
	}
	for {
		select {
		case ev := <-ch:
			write(ev)
			fl.Flush()
		case <-j.done:
			finish()
			return
		case <-r.Context().Done():
			return
		}
	}
}

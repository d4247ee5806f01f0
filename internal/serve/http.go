package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// maxSpecBody bounds a submission body; specs are a few hundred bytes of
// JSON, so a megabyte is already generous.
const maxSpecBody = 1 << 20

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec specEnvelope
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad spec: " + err.Error()})
		return
	}
	st, err := s.Submit(spec.Spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not failure: the queue is bounded by design and
		// the client should come back.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	case st.Cached || st.Deduped:
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleEvents streams a job's progress as server-sent events. The stream
// replays history from ?after=<seq> (default: the beginning), follows the
// live run, and closes after the terminal event — so `curl -N` on a job
// shows queued → started → one window per SampleEvery cycles → done.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	seq := 0
	if after := r.URL.Query().Get("after"); after != "" {
		n, err := strconv.Atoi(after)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad after cursor"})
			return
		}
		seq = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	for {
		events, changed := j.eventsAfter(seq)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			seq = ev.Seq + 1
			if ev.At.Terminal() {
				fl.Flush()
				return
			}
		}
		fl.Flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics renders the registry snapshot as plain text, one
// "name value" line per metric in sorted key order — Snapshot.Keys
// guarantees scrapes diff cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, k := range snap.Keys() {
		fmt.Fprintf(w, "%s %d\n", k, snap.Vals[k])
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

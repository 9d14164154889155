package server

import (
	"encoding/json"
	"errors"
	"net/http"
)

// SubmitRequest is the wire form of a job submission. Config is
// decoded by the Factory the daemon was built with, so this package
// stays ignorant of the facade's Config/DistributedConfig types.
type SubmitRequest struct {
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// Kind selects the job family: "train" (default), "distributed" or
	// "serve".
	Kind   string          `json:"kind,omitempty"`
	Config json.RawMessage `json:"config"`
}

// SubmitResponse carries the assigned job ID.
type SubmitResponse struct {
	ID string `json:"id"`
}

// jobResponse is a status snapshot plus, for done jobs, the job's
// report marshaled as-is.
type jobResponse struct {
	Status
	Report json.RawMessage `json:"report,omitempty"`
}

// Factory turns a SubmitRequest into a runnable JobSpec. The facade
// injects one that builds training runners; tests inject stubs.
type Factory func(req SubmitRequest) (JobSpec, error)

// NewHandler exposes the server over local HTTP/JSON:
//
//	GET    /healthz                 liveness
//	GET    /metrics                 every job's registry, Prometheus text 0.0.4
//	POST   /v1/jobs                 submit (SubmitRequest -> SubmitResponse)
//	GET    /v1/jobs                 list statuses
//	GET    /v1/jobs/{id}            one status (+ report once done)
//	GET    /v1/jobs/{id}/events     the job's events, text/event-stream, until it ends
//	GET    /v1/jobs/{id}/trace      the job's spans so far, a Chrome trace (JSON)
//	GET    /v1/jobs/{id}/decisions  the job's scheduler decision log (JSON)
//	DELETE /v1/jobs/{id}            cancel
func NewHandler(s *Server, f Factory) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, s.jobMetrics())
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		spec, err := f(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			http.Error(w, err.Error(), submitStatus(err))
			return
		}
		writeJSON(w, SubmitResponse{ID: id})
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.List())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, err := s.Get(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		resp := jobResponse{Status: st}
		if st.State == JobDone {
			if result, err := s.Result(id); err == nil && result != nil {
				if raw, err := json.Marshal(result); err == nil {
					resp.Report = raw
				}
			}
		}
		writeJSON(w, resp)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", s.serveEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.serveTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/decisions", func(w http.ResponseWriter, r *http.Request) {
		log, err := s.Decisions(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, log)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	return mux
}

func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusForbidden
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

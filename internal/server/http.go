package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// API is the HTTP front of a Manager. Routes:
//
//	POST   /v1/jobs           submit a JobSpec            -> 202 JobStatus
//	GET    /v1/jobs           list jobs                   -> 200 []JobStatus
//	GET    /v1/jobs/{id}      job state + progress        -> 200 JobStatus
//	GET    /v1/jobs/{id}/result                           -> 200 JobResult
//	GET    /v1/jobs/{id}/trace   scheduling trace (fleet) -> 200 []trace.JSONEvent
//	DELETE /v1/jobs/{id}      cancel                      -> 202 JobStatus
//	GET    /v1/kernels        registry listing            -> 200 []KernelEntry
//	GET    /metrics           text exposition             -> 200 text/plain
//	GET    /healthz           liveness                    -> 200
//
// Error mapping: bad spec 400, unknown job 404, result-not-ready or
// cancel-after-finish 409, submit body larger than any admissible spec
// 413, queue full 429 (+ Retry-After seconds), shutting down 503.
type API struct {
	mgr *Manager
}

// NewHandler builds the HTTP handler over mgr.
func NewHandler(mgr *Manager) http.Handler {
	a := &API{mgr: mgr}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs", a.list)
	mux.HandleFunc("GET /v1/jobs/{id}", a.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", a.result)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", a.trace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	mux.HandleFunc("GET /v1/kernels", a.kernels)
	mux.HandleFunc("GET /metrics", a.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds accompanies 429 rejections.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (a *API) writeError(w http.ResponseWriter, err error) {
	body := ErrorBody{Error: err.Error()}
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrBusy):
		code = http.StatusTooManyRequests
		secs := int(a.mgr.RetryAfter().Seconds())
		if secs < 1 {
			secs = 1
		}
		body.RetryAfterSeconds = secs
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoTrace):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotDone), errors.Is(err, ErrFinished):
		code = http.StatusConflict
	case errors.As(err, new(*http.MaxBytesError)):
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, body)
}

// maxSubmitBytes bounds a submit body so that every spec under the
// MaxCells admission limit fits: an a×b matrix takes a+b <= maxCells+1
// sequence bytes, each at most six bytes once JSON-escaped (\u00XX), and
// 64 KiB covers the remaining fields and formatting.
func maxSubmitBytes(maxCells int64) int64 {
	return 6*(maxCells+1) + 64<<10
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	limit := maxSubmitBytes(a.mgr.cfg.MaxCells)
	if r.ContentLength > limit {
		a.writeError(w, fmt.Errorf("job spec body of %d bytes: %w", r.ContentLength, &http.MaxBytesError{Limit: limit}))
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&spec); err != nil {
		a.writeError(w, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	st, err := a.mgr.Submit(spec)
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.mgr.List())
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	j, err := a.mgr.Get(r.PathValue("id"))
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (a *API) result(w http.ResponseWriter, r *http.Request) {
	j, err := a.mgr.Get(r.PathValue("id"))
	if err != nil {
		a.writeError(w, err)
		return
	}
	res, err := j.Result()
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (a *API) trace(w http.ResponseWriter, r *http.Request) {
	evs, err := a.mgr.Trace(r.PathValue("id"))
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, evs)
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.mgr.Cancel(id); err != nil {
		a.writeError(w, err)
		return
	}
	j, err := a.mgr.Get(id)
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (a *API) kernels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.mgr.Registry().Names())
}

func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	a.mgr.WriteMetrics(w)
}

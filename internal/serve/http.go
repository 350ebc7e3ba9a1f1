package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// HTTP/JSON API — the system's public surface. Handlers are thin: each
// decodes its request, crosses onto the plane's timeline via
// Driver.Do, and encodes the result. Endpoints:
//
//	POST   /v1/jobs       submit a JobSpec, returns JobStatus (202)
//	GET    /v1/jobs       list all job statuses
//	GET    /v1/jobs/{id}  one job's status
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /v1/cluster    cluster snapshot (ClusterStatus)
//	GET    /metrics       telemetry buffer, Graphite plaintext
//	GET    /healthz       liveness
//
// Admission rejections map onto HTTP status codes: a full queue is 429
// Too Many Requests, a tenant over quota is 429, an unknown id is 404,
// an uncancelable job is 409 Conflict, a malformed spec is 400.

// Server is the HTTP face of one Plane/Driver pair.
type Server struct {
	plane   *Plane
	driver  *Driver
	metrics *MemorySink
	mux     *http.ServeMux
}

// NewServer builds the handler. metrics may be nil, disabling
// /metrics; wire the same MemorySink into the Plane's Sink (directly
// or via MultiSink) so the endpoint sees the telemetry stream.
func NewServer(p *Plane, d *Driver, metrics *MemorySink) *Server {
	s := &Server{plane: p, driver: d, metrics: metrics, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/cluster", s.cluster)
	s.mux.HandleFunc("GET /metrics", s.metricsDump)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func errCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrNotCancelable):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	var st JobStatus
	var err error
	s.driver.Do(func() { st, err = s.plane.Submit(spec) })
	if err != nil {
		writeJSON(w, errCode(err), apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) jobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job id"})
		return 0, false
	}
	return id, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	var st JobStatus
	var err error
	s.driver.Do(func() { st, err = s.plane.Status(id) })
	if err != nil {
		writeJSON(w, errCode(err), apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	var st JobStatus
	var err error
	s.driver.Do(func() { st, err = s.plane.Cancel(id) })
	if err != nil {
		writeJSON(w, errCode(err), apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	var jobs []JobStatus
	s.driver.Do(func() { jobs = s.plane.Jobs() })
	writeJSON(w, http.StatusOK, jobs)
}

func (s *Server) cluster(w http.ResponseWriter, _ *http.Request) {
	var st ClusterStatus
	s.driver.Do(func() { st = s.plane.Cluster() })
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) metricsDump(w http.ResponseWriter, _ *http.Request) {
	if s.metrics == nil {
		http.Error(w, "metrics sink not configured", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.Render(w)
}

// healthz answers 200 with "ok" normally and 200 with "degraded" while
// the re-gauging controller is refusing to replan — the process is alive
// and serving either way (liveness probes must not kill a plane that
// is correctly riding out a WAN outage), but the body flips so
// monitors can alarm on measurement health.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	degraded := false
	s.driver.Do(func() { degraded = s.plane.Degraded() })
	w.WriteHeader(http.StatusOK)
	if degraded {
		w.Write([]byte("degraded\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

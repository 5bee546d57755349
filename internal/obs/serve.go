package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server exposes a Telemetry session over HTTP, stdlib only:
//
//	GET /metrics      live Prometheus text exposition
//	GET /timeseries   sampled per-series history with deltas/rates (JSON)
//	GET /trace        chrome://tracing span export of the ring buffer
//	GET /health       SLO verdict — 200 while healthy, 503 once breached
//	GET /debug/pprof  the usual runtime profiles
//	POST /quitquitquit close QuitRequested (release a held server)
//
// Every handler reads live state, so scraping mid-run shows the soak as
// it evolves rather than after the fact.
type Server struct {
	ln  net.Listener
	srv *http.Server
	tel *Telemetry

	quitOnce sync.Once
	quit     chan struct{}
}

// Serve binds addr (host:port; :0 picks a free port) and starts serving
// t in a background goroutine.
func Serve(addr string, t *Telemetry) (*Server, error) {
	if t == nil {
		return nil, fmt.Errorf("obs: Serve needs a non-nil Telemetry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", addr, err)
	}
	s := &Server{ln: ln, tel: t, quit: make(chan struct{})}
	s.srv = &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with :0).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// QuitRequested is closed when a POST /quitquitquit arrives — the hook
// a caller holding the server open after its run waits on.
func (s *Server) QuitRequested() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.quit
}

// Close stops the server immediately.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/timeseries", s.handleTimeseries)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/quitquitquit", s.handleQuit)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Flush the incremental opcode profiles first so per-opcode counters
	// are as live as everything else (Export never double-counts).
	s.tel.Obs.ExportProfiles()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var reg *Registry
	if s.tel.Obs != nil {
		reg = s.tel.Obs.Registry
	}
	_ = reg.WriteText(w)
}

func (s *Server) handleTimeseries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.tel.Sampler.WriteJSON(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var tr *Tracer
	if s.tel.Obs != nil {
		tr = s.tel.Obs.Tracer
	}
	_ = tr.WriteChromeTrace(w)
}

// healthJSON is the compact /health body; the full flight-recorder
// bundle ships in HEALTH_report.json, not over the scrape path.
type healthJSON struct {
	Healthy       bool         `json:"healthy"`
	Samples       uint64       `json:"samples"`
	TotalBreaches uint64       `json:"total_breaches"`
	Rules         []Evaluation `json:"rules"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rep := s.tel.Health.Report()
	w.Header().Set("Content-Type", "application/json")
	if !rep.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(healthJSON{
		Healthy:       rep.Healthy,
		Samples:       rep.Samples,
		TotalBreaches: rep.TotalBreaches,
		Rules:         rep.Rules,
	})
}

func (s *Server) handleQuit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.quitOnce.Do(func() { close(s.quit) })
	fmt.Fprintln(w, "bye")
}

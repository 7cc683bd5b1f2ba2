package obsv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// The daemon observability endpoint: every daemon takes `-metrics addr`
// and serves
//
//	/metrics       Prometheus text exposition
//	/metrics.json  the Snapshot() map as JSON
//	/healthz       liveness (200 as long as the process serves)
//	/readyz        readiness (503 while any probe fails, with the
//	               failing probes in the body — a poisoned serve tier
//	               shows up here, not just in its RPC errors)
//	/traces        the tracer's ring of recent finished spans
//	/debug/pprof/  the standard Go profiler surface
//
// on a loopback (or otherwise firewalled) listener — none of these
// endpoints are authenticated.

// Endpoint bundles everything the observability mux serves. The
// diagnosis additions ride the same listener:
//
//	/debug/flight  the flight recorder's ring as a dump envelope
//	/slo           SLO burn rates (text; ?format=json for machines)
//
// Any field may be nil/empty; the corresponding endpoints then report
// empty state.
type Endpoint struct {
	Daemon   string
	Registry *Registry
	Health   *Health
	Tracer   *Tracer
	Flight   *FlightRecorder
	SLO      *SLOEngine
}

// Handler builds the observability mux.
func (ep Endpoint) Handler() http.Handler {
	reg, health, tracer := ep.Registry, ep.Health, ep.Tracer
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := map[string]float64{}
		if reg != nil {
			snap = reg.Snapshot()
		}
		json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		uptime := time.Duration(0)
		if health != nil {
			uptime = health.Uptime()
		}
		fmt.Fprintf(w, "ok\nuptime: %s\n", uptime.Round(time.Millisecond))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if health == nil {
			fmt.Fprintln(w, "ready")
			return
		}
		if err := health.Ready(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "not ready: %v\n%s", err, health.Report())
			return
		}
		fmt.Fprintf(w, "ready\n%s", health.Report())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		spans := []SpanRecord{}
		if tracer != nil {
			spans = tracer.Spans()
		}
		json.NewEncoder(w).Encode(spans)
	})
	if ep.Flight != nil {
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			ep.Flight.WriteJSON(w, ep.Daemon, "http")
		})
	}
	if ep.SLO != nil {
		mux.HandleFunc("/slo", ep.SLO.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// MetricsServer is a running observability endpoint.
type MetricsServer struct {
	Addr string // bound address (useful with ":0")
	srv  *http.Server
	ln   net.Listener
}

// ListenAndServe starts the endpoint's server on addr and returns once
// the listener is bound; serving continues in the background.
func (ep Endpoint) ListenAndServe(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obsv: metrics listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: ep.Handler()}
	go srv.Serve(ln)
	return &MetricsServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close stops the endpoint.
func (m *MetricsServer) Close() error { return m.srv.Close() }

package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer is a live diagnostics HTTP server bound to one Recorder.
type DebugServer struct {
	Addr string // actual listen address (useful with ":0" requests)
	srv  *http.Server
	ln   net.Listener
}

// StartDebugServer serves /debug/pprof/* (the full net/http/pprof surface)
// and /metrics (Prometheus text exposition of the recorder's live counters,
// gauges and span histograms) on addr, in a background goroutine. It uses a
// private mux, so nothing leaks onto http.DefaultServeMux. Close the
// returned server when done.
func StartDebugServer(addr string, r *Recorder) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", MetricsHandler(r))
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintf(w, "iterskew debug server\n/debug/pprof/\n/metrics\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server listen %s: %w", addr, err)
	}
	ds := &DebugServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux},
		ln:   ln,
	}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Close shuts the server down immediately.
func (ds *DebugServer) Close() error { return ds.srv.Close() }

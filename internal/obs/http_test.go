package obs

import (
	"io"
	"net/http"
	"testing"
)

// TestDebugServer starts the diagnostics server on an ephemeral port and
// checks the pprof index and the Prometheus page (including the recorder's
// live counters).
func TestDebugServer(t *testing.T) {
	r := NewRecorder()
	r.Add(CtrRounds, 11)
	ds, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + ds.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	if body := get("/debug/pprof/"); len(body) == 0 {
		t.Fatal("empty pprof index")
	}
	samples, err := ParseExposition(get("/metrics"))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if got := samples["iterskew_rounds_total"]; got != 11 {
		t.Fatalf("iterskew_rounds_total = %v, want 11", got)
	}
}

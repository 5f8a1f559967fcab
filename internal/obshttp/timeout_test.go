package obshttp

import "testing"

// TestStartedServerBoundsConnections: the server Start runs carries both
// connection timeouts, so a client trickling its request line or idling
// on a keep-alive connection cannot pin a goroutine and an fd forever.
func TestStartedServerBoundsConnections(t *testing.T) {
	s := New(nil)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.http.ReadHeaderTimeout; got != readHeaderTimeout || got <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, readHeaderTimeout)
	}
	if got := s.http.IdleTimeout; got != idleTimeout || got <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", got, idleTimeout)
	}
	if got := s.http.WriteTimeout; got != 0 {
		t.Errorf("WriteTimeout = %v, want none (pprof and trace downloads stream)", got)
	}
}

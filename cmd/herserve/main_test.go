package main

import (
	"io"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// TestRunDrainsOnSignal: SIGTERM ends run only after the request in
// flight has been answered, then the handler's workers are drained; the
// listeners, the debug one included, take no new connection.
func TestRunDrainsOnSignal(t *testing.T) {
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	ln, debugLn := listen(), listen()
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "answered")
	})
	drained := make(chan struct{})
	ran := make(chan error, 1)
	go func() { ran <- run(ln, debugLn, h, func() { close(drained) }) }()

	type reply struct {
		body string
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/vpair")
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replied <- reply{string(body), err}
	}()
	<-entered
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The signal alone must not end run: a request is in flight.
	select {
	case err := <-ran:
		t.Fatalf("run returned %v with a request in flight", err)
	case <-drained:
		t.Fatal("workers drained with a request in flight")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if r := <-replied; r.err != nil || r.body != "answered" {
		t.Errorf("request in flight at the signal: %q, %v", r.body, r.err)
	}
	if err := <-ran; err != nil {
		t.Errorf("run = %v, want nil on a signal", err)
	}
	select {
	case <-drained:
	default:
		t.Error("run returned without draining")
	}
	for _, l := range []net.Listener{ln, debugLn} {
		if c, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after run returned", l.Addr())
		}
	}
}

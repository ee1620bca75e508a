package main

import (
	"testing"

	"interdomain/internal/replication"
)

// TestExporterServerTimeouts: the -replica-addr listener gives a
// connection that dribbles its request header back after the header
// timeout and lets a kept-alive one idle past the followers' transport.
func TestExporterServerTimeouts(t *testing.T) {
	srv := newExporterServer(":0", t.TempDir())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts not set: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if _, ok := srv.Handler.(*replication.Exporter); !ok {
		t.Fatalf("handler is %T, want the exporter", srv.Handler)
	}
}

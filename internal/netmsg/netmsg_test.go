package netmsg

import (
	"errors"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"machlock/internal/core/object"
	"machlock/internal/ipc"
	"machlock/internal/mig"
	"machlock/internal/sched"
)

// echoObj is the exported kernel object.
type echoObj struct {
	object.Object
}

const (
	opEcho = iota
	opUpper
)

type echoArgs struct{ S string }
type echoReply struct{ S string }

// startService builds the remote side: a served port with an echo object.
func startService(t *testing.T) (*ipc.Port, func()) {
	t.Helper()
	srv := ipc.NewServer(ipc.Mach25)
	srv.Register(ipc.KindCustom, opEcho, func(ctx *ipc.Context, obj ipc.KObject, req *ipc.Message) *ipc.Message {
		return ipc.NewReply(req, req.Body...)
	})
	iface := mig.NewInterface(ipc.KindCustom)
	mig.Define(iface, opUpper, "upper", func(ctx *ipc.Context, obj ipc.KObject, a *echoArgs) (*echoReply, error) {
		if a.S == "explode" {
			return nil, errors.New("asked to explode")
		}
		return &echoReply{S: strings.ToUpper(a.S)}, nil
	})
	iface.Install(srv)

	port := ipc.NewPort("svc")
	o := &echoObj{}
	o.Init("echo")
	o.TakeRef()
	port.SetKObject(ipc.KindCustom, o)
	port.TakeRef()
	server := sched.Go("server", func(self *sched.Thread) {
		srv.Serve(self, port)
		port.Release(nil)
	})
	return port, func() {
		port.Destroy()
		server.Join()
	}
}

// pipePair wires a proxy to an exporter over an in-memory connection.
func pipePair(t *testing.T, target *ipc.Port) (*ipc.Port, func()) {
	t.Helper()
	c1, c2 := net.Pipe()
	exportDone := make(chan struct{})
	go func() {
		defer close(exportDone)
		_ = ExportConn(c2, target)
	}()
	proxy := ProxyConn(c1, "svc-proxy")
	return proxy, func() {
		proxy.Destroy()
		select {
		case <-exportDone:
		case <-time.After(5 * time.Second):
			t.Error("exporter did not shut down")
		}
	}
}

func TestTransparentCallThroughProxy(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	proxy, stopProxy := pipePair(t, target)
	defer stopProxy()

	// Plain ipc.Call against the PROXY port — the caller cannot tell it
	// is remote.
	self := sched.New("client")
	body := []any{"hello", int64(42), []byte{0, 0xff}, int(-7), uint64(math.MaxUint64), math.Pi, true}
	resp, err := ipc.Call(self, proxy, opEcho, body...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Body, body) {
		t.Fatalf("body = %#v, want %#v", resp.Body, body)
	}
	resp.Destroy()
}

// TestUnencodableBodyFailsOnlyItsCall: a body item with no wire form fails
// its own call, and the connection carries the next one.
func TestUnencodableBodyFailsOnlyItsCall(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	proxy, stopProxy := pipePair(t, target)
	defer stopProxy()

	self := sched.New("client")
	resp, err := ipc.Call(self, proxy, opEcho, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == nil || errors.Is(resp.Err, ErrConnection) {
		t.Fatalf("resp.Err = %v, want an encoding error", resp.Err)
	}
	resp.Destroy()
	resp, err = ipc.Call(self, proxy, opEcho, "still here")
	if err != nil || resp.Err != nil || resp.Body[0] != "still here" {
		t.Fatalf("next call: %+v, %v", resp, err)
	}
	resp.Destroy()
}

func TestMigStubsOverTheNetwork(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	proxy, stopProxy := pipePair(t, target)
	defer stopProxy()

	self := sched.New("client")
	r, err := mig.Call[echoArgs, echoReply](self, proxy, opUpper, &echoArgs{S: "mach"})
	if err != nil {
		t.Fatal(err)
	}
	if r.S != "MACH" {
		t.Fatalf("reply = %+v", r)
	}
}

func TestRemoteHandlerErrorSurfaces(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	proxy, stopProxy := pipePair(t, target)
	defer stopProxy()

	self := sched.New("client")
	_, err := mig.Call[echoArgs, echoReply](self, proxy, opUpper, &echoArgs{S: "explode"})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RemoteError", err, err)
	}
	if !strings.Contains(re.Error(), "explode") {
		t.Fatalf("remote error text = %q", re.Error())
	}
}

func TestSequentialCallsShareTheConnection(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	proxy, stopProxy := pipePair(t, target)
	defer stopProxy()

	self := sched.New("client")
	for i := 0; i < 50; i++ {
		resp, err := ipc.Call(self, proxy, opEcho, int64(i))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Body[0] != int64(i) {
			t.Fatalf("call %d echoed %v", i, resp.Body[0])
		}
		resp.Destroy()
	}
}

func TestProxyDestroyStopsForwarder(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	proxy, stopProxy := pipePair(t, target)
	stopProxy() // destroys proxy and awaits exporter shutdown

	self := sched.New("client")
	proxyRefHeld := false
	defer func() {
		if r := recover(); r != nil && !proxyRefHeld {
			// Calling through a fully destroyed proxy panics by the
			// reference discipline; treat as the expected outcome.
			return
		}
	}()
	_, err := ipc.Call(self, proxy, opEcho, "late")
	if err == nil {
		t.Fatal("call through destroyed proxy succeeded")
	}
}

func TestBrokenTransportReturnsConnectionError(t *testing.T) {
	c1, c2 := net.Pipe()
	proxy := ProxyConn(c1, "broken")
	defer proxy.Destroy()
	c2.Close() // remote side gone before any call

	self := sched.New("client")
	resp, err := ipc.Call(self, proxy, opEcho, "x")
	if err != nil {
		return // the send itself may fail once the forwarder noticed
	}
	if resp.Err == nil || !errors.Is(resp.Err, ErrConnection) {
		t.Fatalf("resp.Err = %v, want ErrConnection", resp.Err)
	}
	resp.Destroy()
}

// TestBrokenProxyKeepsAnswering: once the transport breaks, every later
// call through the proxy fails with ErrConnection; none waits forever on a
// forwarder that stopped receiving.
func TestBrokenProxyKeepsAnswering(t *testing.T) {
	c1, c2 := net.Pipe()
	proxy := ProxyConn(c1, "broken")
	defer proxy.Destroy()
	c2.Close()

	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		go func() {
			resp, err := ipc.Call(sched.New("client"), proxy, opEcho, "x")
			if err == nil {
				err = resp.Err
				resp.Destroy()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrConnection) {
				t.Fatalf("call %d: err = %v, want ErrConnection", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("call %d after the break got no reply in 2s", i)
		}
	}
}

// TestExportShutdownTerminatesConns: closing the listener must terminate
// Export AND every ExportConn goroutine it spawned — including ones whose
// clients are idle and would otherwise keep the decode loop parked on an
// open socket forever. Export returns only after the per-connection
// handlers have exited, which is the property the regression pins.
func TestExportShutdownTerminatesConns(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener available: %v", err)
	}
	target, stop := startService(t)
	defer stop()

	exportDone := make(chan struct{})
	go func() {
		defer close(exportDone)
		Export(l, target)
	}()

	// Several clients connect; each performs one call to prove the conn is
	// being served, then goes idle with the socket still open.
	self := sched.New("client")
	proxies := make([]*ipc.Port, 4)
	for i := range proxies {
		p, err := Proxy(l.Addr().String(), "shutdown-proxy")
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		if _, err := mig.Call[echoArgs, echoReply](self, p, opUpper, &echoArgs{S: "up"}); err != nil {
			t.Fatalf("proxy %d: %v", i, err)
		}
	}

	// Shutdown: close only the listener. Export must close the four idle
	// server-side conns and return once their handlers have drained.
	l.Close()
	select {
	case <-exportDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Export did not return after listener close (conn handlers leaked)")
	}

	// The server-side close propagates: a call through any proxy now fails
	// with a connection error rather than hanging.
	for i, p := range proxies {
		resp, err := ipc.Call(self, p, opEcho, "late")
		if err == nil {
			if resp.Err == nil || !errors.Is(resp.Err, ErrConnection) {
				t.Fatalf("proxy %d: resp.Err = %v, want ErrConnection", i, resp.Err)
			}
			resp.Destroy()
		}
		p.Destroy()
	}
}

// TestExportAbruptClientDisconnect: a client that vanishes mid-session
// must not strand its ExportConn goroutine; the decode loop sees the
// broken transport and exits, and a later listener close still returns
// promptly (nothing left to wait for).
func TestExportAbruptClientDisconnect(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener available: %v", err)
	}
	target, stop := startService(t)
	defer stop()

	exportDone := make(chan struct{})
	go func() {
		defer close(exportDone)
		Export(l, target)
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close() // abrupt disconnect: no frame ever sent

	l.Close()
	select {
	case <-exportDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Export did not return after abrupt client disconnect + listener close")
	}
}

func TestTCPEndToEnd(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener available: %v", err)
	}
	defer l.Close()
	target, stop := startService(t)
	defer stop()
	go Export(l, target)

	proxy, err := Proxy(l.Addr().String(), "tcp-proxy")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Destroy()
	self := sched.New("client")
	r, err := mig.Call[echoArgs, echoReply](self, proxy, opUpper, &echoArgs{S: "over tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if r.S != "OVER TCP" {
		t.Fatalf("reply = %+v", r)
	}
	if GlobalStats().RequestsForwarded == 0 {
		t.Fatal("frame counters not updated")
	}
}

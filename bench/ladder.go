package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/object"
	"machlock/internal/core/refcount"
	"machlock/internal/core/splock"
	"machlock/internal/ipc"
	"machlock/internal/kern"
	"machlock/internal/machd"
	"machlock/internal/mig"
	"machlock/internal/netmsg"
	"machlock/internal/sched"
	"machlock/internal/trace"
	"machlock/internal/vm"
	"machlock/internal/zalloc"
)

// The layer ladder times the public entry point of each module, bottom rung
// first, from outside the module. Up to the kernel objects a rung is the
// median over ladderBatches batches of the mean time per iteration, batches
// sized to last at least batchTime, on one thread unless named _mt, which
// runs W threads on one instance and reports the time one thread takes per
// iteration. The RPC-path rungs run W callers and time every call (see
// rpcLadder). The lengths follow -seconds; the values given are for the
// default 20.
const (
	ladderBatches = 21
	batchShare    = 0.0002 // 4 ms per batch
	rungShare     = 0.02   // 0.4 s per RPC-path rung
)

// rung returns the median ns per iteration of fn(n), n iterations of one
// layer's entry point.
func (l *ladder) rung(fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if time.Since(t0) >= l.batchTime || n >= 1<<26 {
			break
		}
		n *= 2
	}
	per := make([]float64, ladderBatches)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// mt runs body(thread, n) on w threads at once.
func mt(w int, body func(t *sched.Thread, n int)) func(n int) {
	ts := make([]*sched.Thread, w)
	for i := range ts {
		ts[i] = sched.New(fmt.Sprintf("bench-ladder-mt%d", i))
	}
	return func(n int) {
		var wg sync.WaitGroup
		for _, t := range ts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(t, n)
			}()
		}
		wg.Wait()
	}
}

// ladder collects rungs by name.
type ladder struct {
	vals      map[string]float64
	batchTime time.Duration

	mu  sync.Mutex
	err error // the first error any rung met
}

func newLadder(seconds float64) *ladder {
	return &ladder{vals: map[string]float64{}, batchTime: share(seconds, batchShare)}
}

func (l *ladder) set(name string, v float64) { l.vals[name] = v }

// ns records a rung of batch means, in ns.
func (l *ladder) ns(name string, fn func(n int)) { l.set(name, l.rung(fn)) }

func (l *ladder) fail(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// classLadderObject puts the object rung's lock and count behind a trace
// class, as every kernel object's are.
var classLadderObject = trace.NewClass("bench", "bench.object", trace.KindObject)

// serverThreads is machd's default count of threads draining a service port.
const serverThreads = 8

// ladderResult is a measured ladder: its rungs and whatever its own checks
// found wrong.
type ladderResult struct {
	metrics []metric
	fails   *failLog
}

// runLadder measures every rung and derives the ledger. It counts a failure
// when the ledger leaves more than a fifth of the lookup round trip
// unexplained.
func runLadder(w int, seconds float64, log io.Writer) (*ladderResult, error) {
	fails := &failLog{}
	l := newLadder(seconds)
	self := sched.New("bench-ladder")

	// Lock word, complex lock, reference count, object: tracing off, as
	// shipped for code that does not start a monitor.
	coreRungs(l, self, w)
	kernelRungs(l, self)
	base := takeCensus() // after the zone rung: zone elements are never destroyed

	// The RPC path ships inside machd.Start, which turns the monitor and
	// tracing on; its rungs are measured in that state.
	d, err := machd.Start(machd.Options{})
	if err != nil {
		return nil, err
	}
	rpcRungs(l, self, d, w, share(seconds, rungShare))
	d.Stop()
	checkCensus(base, fails)
	if l.err != nil {
		return nil, l.err
	}

	ledger(l, fails, log)
	out := make([]metric, 0, len(ladderDefs))
	for _, d := range ladderDefs {
		v, ok := l.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("ladder did not measure %s", d.name)
		}
		out = append(out, metric{Name: d.name, Value: v})
	}
	return &ladderResult{metrics: out, fails: fails}, nil
}

func coreRungs(l *ladder, self *sched.Thread, w int) {
	var sp splock.Lock
	pair := func(n int) {
		for i := 0; i < n; i++ {
			sp.Lock()
			sp.Unlock()
		}
	}
	l.ns("splock.pair_ns", pair)
	l.ns("splock.pair_mt_ns", mt(w, func(_ *sched.Thread, n int) { pair(n) }))

	plain := cxlock.NewWith(cxlock.Options{Name: "bench.cx"})
	l.ns("cxlock.read_ns", func(n int) {
		for i := 0; i < n; i++ {
			plain.Read(self)
			plain.Done(self)
		}
	})
	l.ns("cxlock.write_ns", func(n int) {
		for i := 0; i < n; i++ {
			plain.Write(self)
			plain.Done(self)
		}
	})
	biased := cxlock.NewWith(cxlock.Options{Name: "bench.cx.biased", ReaderBias: true})
	l.ns("cxlock.read_biased_ns", func(n int) {
		for i := 0; i < n; i++ {
			biased.Read(self)
			biased.Done(self)
		}
	})
	// Fifteen reads to one write on a biased lock: each write revokes the
	// bias the reads then wait to regain.
	l.ns("cxlock.mixed_mt_ns", mt(w, func(t *sched.Thread, n int) {
		for i := 0; i < n; i++ {
			if i%16 == 15 {
				biased.Write(t)
			} else {
				biased.Read(t)
			}
			biased.Done(t)
		}
	}))

	var atomicRef refcount.Atomic
	atomicRef.Init(1)
	l.ns("refcount.atomic_pair_ns", func(n int) {
		for i := 0; i < n; i++ {
			atomicRef.Clone()
			atomicRef.Release()
		}
	})
	// The paper's form of the same pair: the count lives under its
	// object's simple lock.
	var lockedRef refcount.Count
	lockedRef.Init(1)
	l.ns("refcount.locked_pair_ns", func(n int) {
		for i := 0; i < n; i++ {
			sp.Lock()
			lockedRef.Clone()
			sp.Unlock()
			sp.Lock()
			lockedRef.Release()
			sp.Unlock()
		}
	})

	var obj object.Object
	obj.Init("bench.object")
	obj.SetClass(classLadderObject)
	l.ns("object.lock_ref_ns", func(n int) {
		for i := 0; i < n; i++ {
			obj.TakeRef()
			obj.Release(nil)
		}
	})
	obj.Release(nil) // the creator's reference; takes the object out of the census

	zone := zalloc.NewZone[[8]uint64]("bench", 4, nil)
	l.ns("zalloc.pair_ns", func(n int) {
		for i := 0; i < n; i++ {
			zone.Free(zone.Alloc(self))
		}
	})
}

func kernelRungs(l *ladder, self *sched.Thread) {
	pool := vm.NewPool(4 * kernPages)
	task := kern.NewTask("bench.ladder", pool)
	defer func() { l.fail(task.Terminate(self)) }()

	port := ipc.NewPort("bench.ladder.port")
	space := ipc.NewSpace()
	name := space.Insert(self, port)
	l.ns("ipc.translate_ns", func(n int) {
		for i := 0; i < n; i++ {
			p, err := space.Translate(self, name)
			if err != nil {
				l.fail(err)
				return
			}
			p.Release(nil)
		}
	})
	space.DestroyAll(self)

	tname := task.InsertPort(self, port)
	port.Release(nil) // the name-space entry keeps its own reference
	l.ns("kern.translate_port_ns", func(n int) {
		for i := 0; i < n; i++ {
			p, err := task.TranslatePort(self, tname)
			if err != nil {
				l.fail(err)
				return
			}
			p.Release(nil)
		}
	})
	// The port-churn handler's body.
	l.ns("ipc.insert_remove_ns", func(n int) {
		for i := 0; i < n; i++ {
			p := ipc.NewPort("bench.churn")
			nm := task.InsertPort(self, p)
			l.fail(task.Space().Remove(self, nm))
			p.Destroy()
		}
	})

	m := task.Map()
	res := vm.NewObject(pool, kernPages)
	l.fail(m.Allocate(self, 0, kernPages, res, 0))
	res.Release(self)
	for pg := uint64(0); pg < kernPages; pg++ {
		l.fail(m.Fault(self, pg, false))
	}
	l.ns("vm.fault_resident_ns", func(n int) {
		for i := 0; i < n; i++ {
			l.fail(m.Fault(self, uint64(i%kernPages), false))
		}
	})
	l.ns("vm.allocate_ns", func(n int) {
		for i := 0; i < n; i++ {
			o := vm.NewObject(pool, cyclePages)
			l.fail(m.Allocate(self, 2*kernPages, cyclePages, o, 0))
			o.Release(self)
			l.fail(m.Deallocate(self, 2*kernPages))
		}
	})
	// The task-spawn handler's body at rpc_heavy's size.
	l.set("kern.task_cycle_us", l.rung(func(n int) {
		for i := 0; i < n; i++ {
			l.fail(spawnCycle(self, pool))
		}
	})/1e3)
	l.set("vm.fault_shortage_us", faultShortage(l, self))
}

func spawnCycle(self *sched.Thread, pool *vm.PagePool) error {
	t := kern.NewTask("bench.spawn", pool)
	for i := 0; i < spawnThreads; i++ {
		if _, err := t.CreateThread("bench.spawn.th"); err != nil {
			_ = t.Terminate(self)
			return err
		}
	}
	o := vm.NewObject(pool, spawnPages)
	err := t.Map().Allocate(self, 0, spawnPages, o, 0)
	o.Release(self)
	for pg := uint64(0); err == nil && pg < spawnPages; pg++ {
		err = t.Map().Fault(self, pg, false)
	}
	if terr := t.Terminate(self); err == nil {
		err = terr
	}
	return err
}

// faultShortage times the faults that find the pool empty and sleep until
// the pageout daemon has reclaimed pages: a quarter-sized pool under a map
// swept page by page. It returns their median in microseconds.
func faultShortage(l *ladder, self *sched.Thread) float64 {
	pool := vm.NewPool(kernPages / 4)
	task := kern.NewTask("bench.shortage", pool)
	obj := vm.NewObject(pool, kernPages)
	l.fail(task.Map().Allocate(self, 0, kernPages, obj, 0))
	obj.Release(self)
	pd := vm.NewPageout(pool)
	pd.AddMap(task.Map())
	pd.Start()
	m := task.Map()
	var waits []float64
	deadline := time.Now().Add(2 * time.Second)
	for pg := uint64(0); len(waits) < ladderBatches && time.Now().Before(deadline); pg++ {
		before := m.ShortageWaits()
		t0 := time.Now()
		l.fail(m.Fault(self, pg%kernPages, false))
		if m.ShortageWaits() > before {
			waits = append(waits, float64(time.Since(t0))/1e3)
		}
	}
	pd.Stop()
	l.fail(task.Terminate(self))
	if len(waits) == 0 {
		l.fail(fmt.Errorf("no fault met a memory shortage"))
	}
	return median(waits)
}

// nopService is a port served the way machd serves its own: serverThreads
// threads in ipc.Server.Serve. Routine 0 is a typed no-op with the lookup
// routine's argument and reply types, so its frames are lookup-sized; routine
// 1 is an untyped no-op below the mig stubs.
type nopService struct {
	object.Object
	port    *ipc.Port
	threads []*sched.Thread
}

const (
	nopTyped = iota
	nopRaw
)

func startNopService() *nopService {
	s := &nopService{port: ipc.NewPort("bench.nop")}
	s.Init("bench.nop")
	s.TakeRef() // the port's pointer to its object
	s.port.SetKObject(ipc.KindCustom, s)
	iface := mig.NewInterface(ipc.KindCustom)
	mig.Define(iface, nopTyped, "nop",
		func(*ipc.Context, ipc.KObject, *machd.LookupArgs) (*machd.LookupReply, error) {
			return &machd.LookupReply{Found: true}, nil
		})
	srv := iface.Server(ipc.Mach25)
	srv.Register(ipc.KindCustom, nopRaw, func(_ *ipc.Context, _ ipc.KObject, req *ipc.Message) *ipc.Message {
		return ipc.NewReply(req)
	})
	for i := 0; i < serverThreads; i++ {
		s.port.TakeRef()
		s.threads = append(s.threads, sched.Go(fmt.Sprintf("bench-nop%d", i), func(t *sched.Thread) {
			srv.Serve(t, s.port)
			s.port.Release(nil)
		}))
	}
	return s
}

func (s *nopService) stop() {
	s.port.Destroy()
	for _, t := range s.threads {
		t.Join()
	}
	s.Release(nil)
}

// countingConn counts the bytes netmsg moves each way.
type countingConn struct {
	net.Conn
	written, read atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// callWorker is one caller of an RPC-path rung.
type callWorker struct {
	call func() error
	l    *ladder
}

func (c callWorker) batch() (int, opKind, bool) {
	err := c.call()
	c.l.fail(err)
	return 1, opBatch, err == nil
}

// rpcLadder measures the rungs of the RPC path. Unlike the rungs below them
// these run W callers, closed loop, every call timed, and report the median
// call. With one caller a processor idles between hand-offs, and the time to
// wake it, not the layer's work, sets the round trip, so one-caller steps do
// not nest: a typed no-op call took 76 us in process and 135 us over TCP,
// yet a machd lookup over TCP took 93 us. With W callers the processors stay
// busy, a call costs what its layers' work costs, and the steps add up.
type rpcLadder struct {
	*ladder
	w     int
	d     time.Duration
	lanes []*lane
	self  []*sched.Thread
}

// calls measures one rung: caller i runs mk(i)'s call.
func (r *rpcLadder) calls(name string, mk func(i int) func() error) {
	for i, ln := range r.lanes {
		ln.w = callWorker{call: mk(i), l: r.ladder}
	}
	r.set(name, runPhase(r.lanes, r.w, r.d, false).opMicros(0.50))
}

// lookupCall is a call of a routine that takes lookup's arguments, walking
// machd's default population.
func lookupCall(self *sched.Thread, port *ipc.Port, routine int) func() error {
	seq := 0
	return func() error {
		seq++
		_, err := mig.Call[machd.LookupArgs, machd.LookupReply](self, port, routine,
			&machd.LookupArgs{Slot: seq % 32, Name: uint32(1 + seq%16)})
		return err
	}
}

func rpcRungs(l *ladder, self *sched.Thread, d *machd.Daemon, w int, rungTime time.Duration) {
	// Sub-microsecond, so timed in batches; an iteration is two hand-offs.
	l.set("sched.handoff_us", l.rung(handoff(self))/2/1e3)
	// A message through a port's queue without a second thread.
	l.ns("ipc.send_receive_ns", func(n int) {
		q := ipc.NewPort("bench.queue")
		for i := 0; i < n; i++ {
			msg := ipc.NewMessage(q, nil, 0)
			l.fail(q.Send(msg))
			got, err := q.Receive(self)
			if err != nil {
				l.fail(err)
				return
			}
			got.Destroy()
		}
		q.Destroy()
	})

	r := &rpcLadder{ladder: l, w: w, d: rungTime}
	for i := 0; i < w; i++ {
		r.self = append(r.self, sched.New(fmt.Sprintf("bench-ladder-caller%d", i)))
	}
	r.lanes = newLanes(make([]worker, w))

	svc := startNopService()
	defer svc.stop()
	r.calls("ipc.call_us", func(i int) func() error {
		return func() error {
			resp, err := ipc.Call(r.self[i], svc.port, nopRaw)
			if err == nil {
				resp.Destroy()
			}
			return err
		}
	})
	r.calls("mig.call_us", func(i int) func() error { return lookupCall(r.self[i], svc.port, nopTyped) })

	// netmsg over in-memory pipes: framing and forwarding, no socket. The
	// first pipe also tells how big a lookup's frames are.
	var counted *countingConn
	var exported sync.WaitGroup
	pipes := make([]*ipc.Port, w)
	for i := range pipes {
		c1, c2 := net.Pipe()
		cc := &countingConn{Conn: c1}
		if i == 0 {
			counted = cc
		}
		exported.Add(1)
		go func() {
			defer exported.Done()
			_ = netmsg.ExportConn(c2, svc.port) // ends when the proxy closes the pipe
		}()
		pipes[i] = netmsg.ProxyConn(cc, fmt.Sprintf("bench-ladder-pipe%d", i))
	}
	sizing := lookupCall(self, pipes[0], nopTyped)
	l.fail(sizing()) // the first frames also carry gob's type descriptions
	w0, r0 := counted.written.Load(), counted.read.Load()
	const sized = 16
	for i := 0; i < sized; i++ {
		l.fail(sizing())
	}
	reqBytes := int(counted.written.Load()-w0) / sized
	respBytes := int(counted.read.Load()-r0) / sized
	r.calls("netmsg.pipe_call_us", func(i int) func() error { return lookupCall(r.self[i], pipes[i], nopTyped) })
	for _, p := range pipes {
		p.Destroy()
	}
	exported.Wait()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.fail(err)
		return
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		netmsg.Export(ln, svc.port)
	}()
	r.overTCP("netmsg.tcp_call_us", ln.Addr().String(), nopTyped)
	ln.Close()
	<-served

	r.socketRTT(reqBytes, respBytes)

	// machd's routines in process: mig.Call on the service port, no netmsg.
	port := d.World().ServicePort()
	r.calls("machd.inproc_lookup_us", func(i int) func() error { return lookupCall(r.self[i], port, machd.OpLookup) })
	r.calls("machd.inproc_churn_us", func(i int) func() error {
		seq := i
		return func() error {
			seq++
			_, err := mig.Call[machd.ChurnArgs, machd.ChurnReply](r.self[i], port, machd.OpChurn,
				&machd.ChurnArgs{Slot: seq % 32})
			return err
		}
	})
	r.calls("machd.inproc_spawn_us", func(i int) func() error {
		return func() error {
			_, err := mig.Call[machd.SpawnArgs, machd.SpawnReply](r.self[i], port, machd.OpSpawn,
				&machd.SpawnArgs{Threads: spawnThreads, Pages: spawnPages})
			return err
		}
	})
	r.calls("machd.inproc_touch_us", func(i int) func() error {
		seq := i
		return func() error {
			seq++
			_, err := mig.Call[machd.TouchArgs, machd.TouchReply](r.self[i], port, machd.OpTouch,
				&machd.TouchArgs{Slot: seq % 32, Page: seq % 64})
			return err
		}
	})

	// The whole lookup path, as rpc_small's callers drive it. The median
	// of rpc_small is a lookup, so this is what the ledger must add up to.
	r.overTCP("machd.tcp_lookup_us", d.RPCAddr(), machd.OpLookup)
}

// overTCP measures lookup-shaped calls of routine through netmsg proxies
// dialled to addr, one connection per caller.
func (r *rpcLadder) overTCP(name, addr string, routine int) {
	proxies := make([]*ipc.Port, 0, r.w)
	defer func() {
		for _, p := range proxies {
			p.Destroy()
		}
	}()
	for i := 0; i < r.w; i++ {
		p, err := netmsg.Proxy(addr, fmt.Sprintf("bench-ladder-conn%d", i))
		if err != nil {
			r.fail(err)
			return
		}
		proxies = append(proxies, p)
	}
	r.calls(name, func(i int) func() error { return lookupCall(r.self[i], proxies[i], routine) })
}

// socketRTT is a raw loopback TCP ping-pong with a lookup's frame sizes, one
// connection and one echoing goroutine per caller.
func (r *rpcLadder) socketRTT(reqBytes, respBytes int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fail(err)
		return
	}
	var echoes sync.WaitGroup
	echoes.Add(1)
	go func() {
		defer echoes.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			echoes.Add(1)
			go func() {
				defer echoes.Done()
				defer conn.Close()
				buf := make([]byte, max(reqBytes, respBytes))
				for {
					if _, err := io.ReadFull(conn, buf[:reqBytes]); err != nil {
						return // the client hung up
					}
					if _, err := conn.Write(buf[:respBytes]); err != nil {
						return
					}
				}
			}()
		}
	}()
	conns := make([]net.Conn, 0, r.w)
	for i := 0; i < r.w; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.fail(err)
			break
		}
		conns = append(conns, c)
	}
	if len(conns) == r.w {
		r.calls("socket.rtt_us", func(i int) func() error {
			buf := make([]byte, max(reqBytes, respBytes))
			return func() error {
				if _, err := conns[i].Write(buf[:reqBytes]); err != nil {
					return err
				}
				_, err := io.ReadFull(conns[i], buf[:respBytes])
				return err
			}
		})
	}
	for _, c := range conns {
		c.Close()
	}
	ln.Close()
	echoes.Wait()
}

// handoff is a ThreadSleep/ThreadWakeup ping-pong between two threads; one
// iteration is two hand-offs, and the rung reports one.
func handoff(self *sched.Thread) func(n int) {
	return func(n int) {
		var lock splock.Lock
		ping, pong := new(int), new(int) // the two events
		turn, rounds := 0, n
		peer := sched.Go("bench-ladder-pong", func(t *sched.Thread) {
			for i := 0; i < rounds; i++ {
				lock.Lock()
				for turn != 1 {
					sched.ThreadSleep(t, sched.Event(pong), lock.Unlock)
					lock.Lock()
				}
				turn = 0
				lock.Unlock()
				sched.ThreadWakeup(sched.Event(ping))
			}
		})
		for i := 0; i < rounds; i++ {
			lock.Lock()
			turn = 1
			lock.Unlock()
			sched.ThreadWakeup(sched.Event(pong))
			lock.Lock()
			for turn != 0 {
				sched.ThreadSleep(self, sched.Event(ping), lock.Unlock)
				lock.Lock()
			}
			lock.Unlock()
		}
		peer.Join()
	}
}

// ledger derives the self times along the lookup path and prints them as a
// table. Each layer's self time is its step minus the step below it; the
// socket is at the bottom, so its self time is its step.
func ledger(l *ladder, fails *failLog, log io.Writer) {
	v := l.vals
	v["mig.self_us"] = v["mig.call_us"] - v["ipc.call_us"]
	v["socket.self_us"] = v["socket.rtt_us"]
	v["netmsg.self_us"] = v["netmsg.tcp_call_us"] - v["mig.call_us"] - v["socket.rtt_us"]
	for _, k := range []string{"lookup", "churn", "spawn", "touch"} {
		v["machd.handler_"+k+"_us"] = v["machd.inproc_"+k+"_us"] - v["mig.call_us"]
	}

	target := v["machd.tcp_lookup_us"]
	rows := []struct {
		layer      string
		step, self float64
	}{
		{"socket (loopback rtt)", v["socket.rtt_us"], v["socket.self_us"]},
		{"sched (2 hand-offs)", 2 * v["sched.handoff_us"], 2 * v["sched.handoff_us"]},
		{"ipc (call)", v["ipc.call_us"], v["ipc.call_us"] - 2*v["sched.handoff_us"]},
		{"mig (typed call)", v["mig.call_us"], v["mig.self_us"]},
		{"machd (lookup handler)", v["machd.inproc_lookup_us"], v["machd.handler_lookup_us"]},
		{"netmsg (tcp call)", v["netmsg.tcp_call_us"], v["netmsg.self_us"]},
	}
	sum := 0.0
	fmt.Fprintf(log, "ledger: the lookup path, self time = step - the step below; shares are of rpc_small's median round trip (%.1f us)\n", target)
	fmt.Fprintf(log, "ledger: %-26s %10s %10s %8s\n", "layer", "step_us", "self_us", "share")
	for _, r := range rows {
		sum += r.self
		fmt.Fprintf(log, "ledger: %-26s %10.2f %10.2f %7.1f%%\n", r.layer, r.step, r.self, 100*r.self/target)
	}
	residual := 1 - sum/target
	fmt.Fprintf(log, "ledger: %-26s %10s %10.2f %7.1f%%\n", "sum", "", sum, 100*sum/target)
	fmt.Fprintf(log, "ledger: %-26s %10s %10.2f %7.1f%%\n", "residual", "", target-sum, 100*residual)
	v["ledger.sum_us"] = sum
	v["ledger.residual_ratio"] = residual
	if residual > 0.20 || residual < -0.20 {
		fails.addf("ledger leaves %.0f%% of the lookup round trip unexplained (limit 20%%)", 100*residual)
	}
}

package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"machlock/internal/ipc"
	"machlock/internal/kern"
	"machlock/internal/machd"
	"machlock/internal/mig"
	"machlock/internal/netmsg"
	"machlock/internal/sched"
	"machlock/internal/trace"
	"machlock/internal/vm"
)

// world is a built population plus the callers that will load it.
type world interface {
	workers() []worker
	// counters reads the world's own cumulative fault and reclaim counts.
	counters() (faults, reclaims int64, err error)
	// finish runs the end-of-run checks, tears the world down, and checks
	// that the live-object census is back at base.
	finish(base census)
}

// census is every trace class's live-instance gauge.
type census map[string]int64

func takeCensus() census {
	c := census{}
	for _, cl := range trace.Classes() {
		c[cl.Pkg()+"/"+cl.Name()] = cl.Live()
	}
	return c
}

// checkCensus waits for the census to return to base: proxy forwarders drop
// their last port reference on their own goroutine, shortly after Destroy.
func checkCensus(base census, f *failLog) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var diff []string
		for k, v := range takeCensus() {
			if v != base[k] {
				diff = append(diff, fmt.Sprintf("%s %d->%d", k, base[k], v))
			}
		}
		if len(diff) == 0 {
			return
		}
		if time.Now().After(deadline) {
			sort.Strings(diff)
			f.addf("census not back at its pre-run value: %v", diff)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Spawn arguments of rpc_heavy.
const (
	spawnThreads = 2
	spawnPages   = 32
)

// rpcWorld is an in-process machd (default world, as shipped: monitor and
// tracing on) reached over loopback TCP, one connection per caller.
type rpcWorld struct {
	d       *machd.Daemon
	stat0   machd.StatReply
	statT   *sched.Thread
	callers []*rpcCaller
	fails   *failLog
}

func setupRPC(wl workload, seed int64, w int, fails *failLog) (*rpcWorld, error) {
	d, err := machd.Start(machd.Options{})
	if err != nil {
		return nil, err
	}
	rw := &rpcWorld{d: d, statT: sched.New("bench-stat"), fails: fails}
	for i := 0; i < w; i++ {
		p, err := netmsg.Proxy(d.RPCAddr(), fmt.Sprintf("bench-conn%d", i))
		if err != nil {
			rw.teardown()
			return nil, fmt.Errorf("dial %s: %w", d.RPCAddr(), err)
		}
		rw.callers = append(rw.callers, &rpcCaller{
			self: sched.New(fmt.Sprintf("bench-caller%d", i)), port: p, fails: fails,
		})
	}
	// The population's shape is discovered over the wire, as machd's own
	// generator does, so bench and daemon share nothing but the socket.
	stat, err := rw.stat()
	if err != nil {
		rw.teardown()
		return nil, err
	}
	rw.stat0 = *stat
	sh := shape{tasks: stat.Tasks, ports: stat.PortsPerTask, pages: stat.VMPages}
	for i, c := range rw.callers {
		c.tape = makeTape(wl, sh, seed, i)
		c.sh = sh
		// A churn reply counts the slot's names after the caller's own
		// removal: the stable ports, the chaos port, and whatever the
		// other callers have inserted at that instant.
		c.maxNames = sh.ports + 1 + w
		c.lastFaults = make([]int64, sh.tasks)
		c.spawnIDs = make([]int64, 0, 1<<20)
	}
	return rw, nil
}

func (rw *rpcWorld) stat() (*machd.StatReply, error) {
	return mig.Call[machd.StatArgs, machd.StatReply](rw.statT, rw.callers[0].port, machd.OpStat, &machd.StatArgs{})
}

func (rw *rpcWorld) workers() []worker {
	ws := make([]worker, len(rw.callers))
	for i, c := range rw.callers {
		ws[i] = c
	}
	return ws
}

func (rw *rpcWorld) counters() (int64, int64, error) {
	s, err := rw.stat()
	if err != nil {
		return 0, 0, err
	}
	return s.Faults, s.Reclaims, nil
}

func (rw *rpcWorld) teardown() {
	for _, c := range rw.callers {
		c.port.Destroy()
	}
	rw.d.Stop()
}

func (rw *rpcWorld) finish(base census) {
	f := rw.fails
	var ids []int64
	for _, c := range rw.callers {
		ids = append(ids, c.spawnIDs...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			f.addf("spawn id %d handed out twice", ids[i])
			break
		}
	}
	if s, err := rw.stat(); err != nil {
		f.addf("final stat: %v", err)
	} else if got := s.Spawns - rw.stat0.Spawns; got != int64(len(ids)) {
		f.addf("daemon counted %d spawns, callers completed %d", got, len(ids))
	}
	for _, k := range machd.IncidentKinds {
		if n := rw.d.Monitor().IncidentCount(k); n != 0 {
			f.addf("%d %s incidents", n, k)
		}
	}
	rw.teardown()
	checkCensus(base, f)
}

// rpcCaller is one client thread with its own connection. Every reply is
// validated; a wrong reply, an error, or a success that should have failed
// is a failure.
type rpcCaller struct {
	self *sched.Thread
	port *ipc.Port
	tape []op
	pos  int
	sh   shape

	maxNames   int
	lastFaults []int64 // per slot: the last fault count this caller saw
	spawnIDs   []int64
	fails      *failLog
}

func (c *rpcCaller) batch() (int, opKind, bool) {
	o := c.tape[c.pos]
	c.pos = (c.pos + 1) % len(c.tape)
	ok := c.call(o)
	return 1, o.kind, ok
}

func (c *rpcCaller) call(o op) bool {
	slot := int(o.slot)
	switch o.kind {
	case opLookup:
		r, err := mig.Call[machd.LookupArgs, machd.LookupReply](c.self, c.port, machd.OpLookup,
			&machd.LookupArgs{Slot: slot, Name: o.arg})
		if err != nil || !r.Found {
			c.fails.addf("lookup slot %d name %d: reply %+v, err %v", slot, o.arg, r, err)
			return false
		}
	case opLookupDead:
		r, err := mig.Call[machd.LookupArgs, machd.LookupReply](c.self, c.port, machd.OpLookup,
			&machd.LookupArgs{Slot: slot, Name: o.arg})
		var remote *netmsg.RemoteError
		if !errors.As(err, &remote) {
			c.fails.addf("lookup of dead name: want *netmsg.RemoteError, got reply %+v, err %v", r, err)
			return false
		}
	case opChurn:
		r, err := mig.Call[machd.ChurnArgs, machd.ChurnReply](c.self, c.port, machd.OpChurn,
			&machd.ChurnArgs{Slot: slot})
		if err != nil || r.Names < c.sh.ports || r.Names > c.maxNames {
			c.fails.addf("churn slot %d: reply %+v (want %d..%d names), err %v", slot, r, c.sh.ports, c.maxNames, err)
			return false
		}
	case opSpawn:
		r, err := mig.Call[machd.SpawnArgs, machd.SpawnReply](c.self, c.port, machd.OpSpawn,
			&machd.SpawnArgs{Threads: spawnThreads, Pages: spawnPages})
		if err != nil {
			c.fails.addf("spawn: %v", err)
			return false
		}
		c.spawnIDs = append(c.spawnIDs, r.ID)
	case opTouch:
		r, err := mig.Call[machd.TouchArgs, machd.TouchReply](c.self, c.port, machd.OpTouch,
			&machd.TouchArgs{Slot: slot, Page: int(o.arg)})
		if err != nil || r.Faults <= c.lastFaults[slot] {
			c.fails.addf("touch slot %d: reply %+v after %d faults, err %v", slot, r, c.lastFaults[slot], err)
			return false
		}
		c.lastFaults[slot] = r.Faults
	default:
		c.fails.addf("rpc caller given %s", opNames[o.kind])
		return false
	}
	return true
}

// Kernel population: deliberately hot, so two threads meet on the same
// locks often enough for contention to register.
const (
	kernTasks = 4
	kernPorts = 16
	kernPages = 64
	// cyclePages is how many pages a kCycle task maps and faults.
	cyclePages = 4
)

// kernWorld is the population the kernel_* workloads call directly. It is
// built the way machd.NewWorld builds its slots, and the op bodies in
// kernWorker.run mirror the handlers in internal/machd/world.go (lookup,
// port-churn, task-spawn, vm-touch): keep them in step.
type kernWorld struct {
	wl      workload
	pool    *vm.PagePool
	pageout *vm.Pageout // kernel_write only
	tasks   []*kern.Task
	ws      []*kernWorker
	fails   *failLog
}

func setupKernel(wl workload, seed int64, w int, fails *failLog) (*kernWorld, error) {
	kw := &kernWorld{wl: wl, fails: fails}
	poolPages := kernTasks * kernPages // kernel_read: every page stays resident
	if wl.write {
		poolPages /= 2 // machd's default ratio
	}
	kw.pool = vm.NewPool(poolPages)
	if wl.write {
		kw.pageout = vm.NewPageout(kw.pool)
	}
	init := sched.New("bench-init")
	for i := 0; i < kernTasks; i++ {
		t := kern.NewTask(fmt.Sprintf("bench.task%d", i), kw.pool)
		kw.tasks = append(kw.tasks, t)
		for j := 0; j < kernPorts; j++ {
			p := ipc.NewPort(fmt.Sprintf("bench.t%d.p%d", i, j))
			t.InsertPort(init, p)
			p.Release(nil) // the name-space entry keeps its own reference
		}
		obj := vm.NewObject(kw.pool, kernPages)
		err := t.Map().Allocate(init, 0, kernPages, obj, 0)
		obj.Release(init) // the map entry keeps its own reference
		if err != nil {
			kw.teardown()
			return nil, fmt.Errorf("allocate task %d: %w", i, err)
		}
		if wl.write {
			kw.pageout.AddMap(t.Map())
			continue
		}
		for pg := uint64(0); pg < kernPages; pg++ {
			if err := t.Map().Fault(init, pg, false); err != nil {
				kw.teardown()
				return nil, fmt.Errorf("prefault task %d page %d: %w", i, pg, err)
			}
		}
	}
	if wl.write {
		kw.pageout.Start()
	}
	sh := shape{tasks: kernTasks, ports: kernPorts, pages: kernPages}
	for i := 0; i < w; i++ {
		kw.ws = append(kw.ws, &kernWorker{
			self: sched.New(fmt.Sprintf("bench-thread%d", i)),
			kw:   kw, tape: makeTape(wl, sh, seed, i),
		})
	}
	return kw, nil
}

func (kw *kernWorld) workers() []worker {
	ws := make([]worker, len(kw.ws))
	for i, w := range kw.ws {
		ws[i] = w
	}
	return ws
}

func (kw *kernWorld) counters() (int64, int64, error) {
	var faults, reclaims int64
	for _, t := range kw.tasks {
		faults += t.Map().Faults()
	}
	for _, w := range kw.ws {
		faults += w.cycleFaults
	}
	if kw.pageout != nil {
		reclaims = kw.pageout.Reclaims()
	}
	return faults, reclaims, nil
}

func (kw *kernWorld) teardown() {
	if kw.pageout != nil {
		kw.pageout.Stop()
	}
	reaper := sched.New("bench-reaper")
	for _, t := range kw.tasks {
		_ = t.Terminate(reaper) // a task is terminated once, here
	}
}

func (kw *kernWorld) finish(base census) {
	f := kw.fails
	check := sched.New("bench-check")
	for i, t := range kw.tasks {
		if n := t.Space().Len(check); n != kernPorts {
			f.addf("task %d name space holds %d names at rest, want %d", i, n, kernPorts)
		}
		if n := t.Map().ShortageWaits(); n != 0 {
			f.addf("task %d waited for memory %d times; the resident set must fit the pool", i, n)
		}
	}
	resident := 0
	if !kw.wl.write {
		resident = kernTasks * kernPages
	}
	if free := kw.pool.FreeCount(); free != kw.pool.Total()-resident {
		f.addf("pool has %d of %d pages free at rest, want %d", free, kw.pool.Total(), kw.pool.Total()-resident)
	}
	kw.teardown()
	if free := kw.pool.FreeCount(); free != kw.pool.Total() {
		f.addf("pool has %d of %d pages free after teardown", free, kw.pool.Total())
	}
	checkCensus(base, f)
}

// kernWorker is one kernel thread replaying its tape against the layers.
type kernWorker struct {
	self *sched.Thread
	kw   *kernWorld
	tape []op
	pos  int
	// cycleFaults counts faults taken in maps that no longer exist.
	cycleFaults int64
}

func (w *kernWorker) batch() (int, opKind, bool) {
	n := w.kw.wl.batch
	ok := true
	for _, o := range w.tape[w.pos : w.pos+n] {
		if err := w.run(o); err != nil {
			w.kw.fails.addf("%s slot %d arg %d: %v", opNames[o.kind], o.slot, o.arg, err)
			ok = false
		}
	}
	w.pos = (w.pos + n) % len(w.tape)
	return n, opBatch, ok
}

func (w *kernWorker) run(o op) error {
	task := w.kw.tasks[o.slot]
	switch o.kind {
	case kTranslate: // the lookup handler
		p, err := task.TranslatePort(w.self, ipc.Name(o.arg))
		if err != nil {
			return err
		}
		p.Release(nil)
	case kFault: // the vm-touch handler
		return task.Map().Fault(w.self, uint64(o.arg), false)
	case kChurn: // the port-churn handler
		p := ipc.NewPort("bench.churn")
		n := task.InsertPort(w.self, p)
		err := task.Space().Remove(w.self, n)
		p.Destroy()
		return err
	case kCycle: // the task-spawn handler, without threads
		t := kern.NewTask("bench.cycle", w.kw.pool)
		obj := vm.NewObject(w.kw.pool, cyclePages)
		err := t.Map().Allocate(w.self, 0, cyclePages, obj, 0)
		obj.Release(w.self)
		for pg := uint64(0); err == nil && pg < cyclePages; pg++ {
			err = t.Map().Fault(w.self, pg, false)
		}
		w.cycleFaults += t.Map().Faults()
		if terr := t.Terminate(w.self); err == nil {
			err = terr
		}
		return err
	default:
		return fmt.Errorf("kernel worker given an RPC op")
	}
	return nil
}

func setupWorld(wl workload, seed int64, w int, fails *failLog) (world, error) {
	if wl.kernel {
		return setupKernel(wl, seed, w, fails)
	}
	return setupRPC(wl, seed, w, fails)
}

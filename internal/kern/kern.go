// Package kern implements the task and thread kernel objects, tying the
// whole coordination machinery together the way the Mach kernel does:
//
//   - A task "has two locks to allow task operations and ipc translations
//     to occur in parallel" (Section 5): the object lock for task state and
//     a separate translation lock in front of its port name space.
//   - Tasks and threads are deactivatable objects terminated by the
//     Section 10 shutdown protocol, exported through self ports.
//   - Inter-object pointers (task↔thread, task→map) each carry a counted
//     reference.
package kern

import (
	"errors"
	"fmt"

	"machlock/internal/core/object"
	"machlock/internal/ipc"
	"machlock/internal/sched"
	"machlock/internal/trace"
	"machlock/internal/vm"
)

// Observability classes: all tasks aggregate under one class, all threads
// under another, so the contention profile — and the live census the
// monitor's leak detection watches — describes the kernel type, not one
// instance.
var (
	classTask   = trace.NewClass("kern", "kern.task", trace.KindObject)
	classThread = trace.NewClass("kern", "kern.thread", trace.KindObject)

	// Operation spans for the task lifecycle (see trace.BeginSpan).
	// Creation has no calling kernel thread in this API, so its span is
	// anonymous: latency is recorded, lock waits are not credited.
	opTaskCreate    = trace.NewOp("kern", "op.task-create")
	opTaskTerminate = trace.NewOp("kern", "op.task-terminate")
)

// ErrTerminated is returned by operations on a terminated task or thread.
var ErrTerminated = errors.New("kern: terminated")

// Task is an execution environment: "the basic unit of resource
// allocation, consisting of a paged virtual address space and access to
// resources (via ports)".
type Task struct {
	object.Object // the task lock, reference count, active flag

	// The task's second lock — the one that lets translations
	// parallelize against task operations — lives inside the space
	// itself: a reader-biased complex lock, so concurrent translators
	// also parallelize against each other.

	space    *ipc.Space
	vmMap    *vm.Map
	threads  []*Thread
	selfPort *ipc.Port
	suspend  int
}

// Thread is a locus of control within a task. The kernel object wraps the
// schedulable sched.Thread.
type Thread struct {
	object.Object

	task     *Task // counted reference
	sch      *sched.Thread
	selfPort *ipc.Port
	suspend  int
}

// NewTask creates a task with an empty address space over pool, a fresh
// port name space, and a self port whose kernel object is the task.
func NewTask(name string, pool *vm.PagePool) *Task {
	defer trace.BeginSpan(nil, opTaskCreate).End()
	t := &Task{
		space: ipc.NewSpace(),
		vmMap: vm.NewMap(pool),
	}
	t.Init(name)
	t.SetClass(classTask)
	t.selfPort = ipc.NewPort(name + ".self")
	t.TakeRef() // the port's kobject pointer holds a reference
	t.selfPort.SetKObject(ipc.KindTask, t)
	return t
}

// SelfPort returns the task's self port.
func (t *Task) SelfPort() *ipc.Port { return t.selfPort }

// Map returns the task's address space.
func (t *Task) Map() *vm.Map { return t.vmMap }

// Space returns the task's port name space.
func (t *Task) Space() *ipc.Space { return t.space }

// InsertPort registers a port in the task's name space under the space's
// translation lock — the parallel path that never touches the task lock.
// cur is the inserting thread (nil forces the lock's slow path).
func (t *Task) InsertPort(cur *sched.Thread, p *ipc.Port) ipc.Name {
	return t.space.Insert(cur, p)
}

// TranslatePort resolves a port name, cloning a reference for the caller.
// Translation holds only the space's reader-biased lock, so it runs in
// parallel both with task operations (which hold the task lock) and with
// other translations (which share the read side).
func (t *Task) TranslatePort(cur *sched.Thread, n ipc.Name) (*ipc.Port, error) {
	return t.space.Translate(cur, n)
}

// Suspend increments the task's suspend count (a task operation: task
// lock). Fails on a terminated task.
func (t *Task) Suspend() error {
	t.Lock()
	defer t.Unlock()
	if err := t.CheckActive(); err != nil {
		return ErrTerminated
	}
	t.suspend++
	return nil
}

// Resume decrements the suspend count.
func (t *Task) Resume() error {
	t.Lock()
	defer t.Unlock()
	if err := t.CheckActive(); err != nil {
		return ErrTerminated
	}
	if t.suspend == 0 {
		return fmt.Errorf("kern: resume of non-suspended task")
	}
	t.suspend--
	return nil
}

// SuspendCount returns the current suspend count.
func (t *Task) SuspendCount() int {
	t.Lock()
	defer t.Unlock()
	return t.suspend
}

// CreateThread adds a thread to the task. The thread holds a reference to
// the task and vice versa (inter-object pointers are counted references).
func (t *Task) CreateThread(name string) (*Thread, error) {
	th := &Thread{sch: sched.New(name)}
	th.Init(name)
	th.SetClass(classThread)
	th.selfPort = ipc.NewPort(name + ".self")
	th.TakeRef()
	th.selfPort.SetKObject(ipc.KindThread, th)

	t.Lock()
	if err := t.CheckActive(); err != nil {
		t.Unlock()
		// Creation failed: unwind the thread's port and self.
		th.selfPort.Destroy() // releases the kobject reference
		th.Release(nil)       // creator reference; destroys the shell
		return nil, ErrTerminated
	}
	t.TakeRef()  // the thread's task pointer
	th.TakeRef() // the task's thread-list pointer
	t.threads = append(t.threads, th)
	t.Unlock()

	th.task = t
	return th, nil
}

// Threads returns a snapshot of the task's thread list, each with a cloned
// reference the caller must release.
func (t *Task) Threads() []*Thread {
	t.Lock()
	defer t.Unlock()
	out := make([]*Thread, len(t.threads))
	for i, th := range t.threads {
		th.TakeRef()
		out[i] = th
	}
	return out
}

// ThreadCount returns the number of live threads.
func (t *Task) ThreadCount() int {
	t.Lock()
	defer t.Unlock()
	return len(t.threads)
}

// Sched returns the thread's schedulable identity.
func (th *Thread) Sched() *sched.Thread { return th.sch }

// SelfPort returns the thread's self port.
func (th *Thread) SelfPort() *ipc.Port { return th.selfPort }

// Task returns the thread's task (borrowed pointer; covered by the
// thread's own reference to the task).
func (th *Thread) Task() *Task { return th.task }

// Terminate runs the Section 10 shutdown protocol on the thread: exactly
// one caller wins; it is detached from its task and its structure survives
// until the last reference drops. cur is the kernel thread executing the
// termination (releases may block).
func (th *Thread) Terminate(cur *sched.Thread) error {
	// Step 1-2: deactivate and disable port translation.
	if !ipc.Shutdown(th.selfPort, th, func() {
		// Step 3: shutdown the object — detach from the task.
		task := th.task
		if task == nil {
			return
		}
		task.Lock()
		for i, x := range task.threads {
			if x == th {
				task.threads = append(task.threads[:i], task.threads[i+1:]...)
				// Release the task's reference to the thread.
				defer th.Release(nil)
				break
			}
		}
		task.Unlock()
		// Release the thread's reference to the task.
		task.Release(nil)
	}) {
		return ErrTerminated
	}
	th.selfPort.Destroy()
	return nil
}

// Terminate runs the shutdown protocol on the task, terminating every
// thread first. cur is the executing kernel thread.
func (t *Task) Terminate(cur *sched.Thread) error {
	defer trace.BeginSpan(cur, opTaskTerminate).End()
	// Terminating the task terminates its threads; snapshot them first
	// (references keep them valid across the unlock).
	threads := t.Threads()
	if !ipc.Shutdown(t.selfPort, t, func() {
		for _, th := range threads {
			th.Terminate(cur) // a lost race here is fine: already dying
		}
		t.space.DestroyAll(cur)
		t.vmMap.Release(cur)
	}) {
		for _, th := range threads {
			th.Release(nil)
		}
		return ErrTerminated
	}
	for _, th := range threads {
		th.Release(nil)
	}
	t.selfPort.Destroy()
	return nil
}

// Package netmsg implements the network message server role of Section 3:
// "Most kernel operations are invoked by sending messages to the kernel,
// permitting transparent remote invocation over networks."
//
// Transparency is literal: Proxy returns an ordinary local *ipc.Port.
// Messages sent to it — by ipc.Call, by mig stubs, by anything — are
// forwarded over the connection to the exporting side, delivered to the
// real port there, and the replies travel back to the local sender's reply
// port. Client code cannot tell whether a port is local or a network
// proxy, which is exactly the property the paper describes.
//
// The wire format is one frame per message, in the machlock/internal/wire
// encoding:
//
//	uvarint len | varint op | uvarint errlen, err | uvarint n | n items
//
// len counts the bytes after itself and may not exceed 1 MiB. A request
// carries an empty err; a reply carries either the error text or the body.
// Each item is a tag byte and the value: []byte and string as a uvarint
// length and the bytes; int and int64 as varints; uint64 as a uvarint;
// float64 as the uvarint of its IEEE-754 bits; bool as one byte 0 or 1.
// Those seven are the body types that cross the wire (the mig stub layer
// only ever sends one []byte payload, so typed interfaces cross unchanged).
// A frame is encoded whole before any of it is written, so a body that
// cannot be encoded fails only its own call. The reader rejects a length
// over the cap before allocating, an item count the bytes left cannot
// hold, an unknown tag, and truncated, overlong or trailing bytes.
package netmsg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"machlock/internal/ipc"
	"machlock/internal/sched"
	"machlock/internal/wire"
)

// Errors surfaced by the proxy.
var (
	// ErrConnection reports a broken transport: the call in flight when it
	// broke and every later call through the proxy fail with it.
	ErrConnection = errors.New("netmsg: connection failed")
)

// RemoteError carries a remote-side failure (dispatcher or handler error)
// back to the local caller as text; error identity does not cross the
// wire.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "netmsg(remote): " + e.Msg }

// maxFrame caps a frame's length: a larger length header is refused before
// anything is allocated for it.
const maxFrame = 1 << 20

// Item tags.
const (
	tagBytes byte = 1 + iota
	tagString
	tagInt
	tagInt64
	tagUint64
	tagFloat64
	tagBool
)

// frame is one message: a request (op, body) or a reply (op, body or err).
type frame struct {
	op   int
	err  string
	body []any
}

// appendFrame appends f's frame, without its length header, to b.
func appendFrame(b []byte, f frame) ([]byte, error) {
	b = binary.AppendVarint(b, int64(f.op))
	b = wire.AppendString(b, f.err)
	b = binary.AppendUvarint(b, uint64(len(f.body)))
	for _, v := range f.body {
		switch v := v.(type) {
		case []byte:
			b = wire.AppendBytes(append(b, tagBytes), v)
		case string:
			b = wire.AppendString(append(b, tagString), v)
		case int:
			b = binary.AppendVarint(append(b, tagInt), int64(v))
		case int64:
			b = binary.AppendVarint(append(b, tagInt64), v)
		case uint64:
			b = binary.AppendUvarint(append(b, tagUint64), v)
		case float64:
			b = binary.AppendUvarint(append(b, tagFloat64), math.Float64bits(v))
		case bool:
			b = wire.AppendBool(append(b, tagBool), v)
		default:
			return b, fmt.Errorf("netmsg: cannot send a %T body item", v)
		}
	}
	if len(b) > maxFrame {
		return b, fmt.Errorf("netmsg: %d-byte frame exceeds %d", len(b), maxFrame)
	}
	return b, nil
}

// parseFrame decodes a frame's bytes after the length header. []byte items
// are copied out of p, so p may be reused.
func parseFrame(p []byte) (frame, error) {
	r := wire.NewReader(p)
	var f frame
	op := r.Varint()
	f.op = int(op)
	if int64(f.op) != op {
		return frame{}, fmt.Errorf("netmsg: op %d overflows int", op)
	}
	f.err = string(r.Bytes())
	// Every item takes at least two bytes, a tag and a value.
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		if n > uint64(r.Len()/2) {
			return frame{}, fmt.Errorf("netmsg: %d items in %d bytes", n, r.Len())
		}
		f.body = make([]any, n)
		for i := range f.body {
			v, err := readItem(&r)
			if err != nil {
				return frame{}, err
			}
			f.body[i] = v
		}
	}
	if err := r.Finish(); err != nil {
		return frame{}, fmt.Errorf("netmsg: frame: %w", err)
	}
	return f, nil
}

func readItem(r *wire.Reader) (any, error) {
	var v any
	switch tag := r.Byte(); tag {
	case tagBytes:
		v = bytes.Clone(r.Bytes())
	case tagString:
		v = string(r.Bytes())
	case tagInt:
		x := r.Varint()
		if int64(int(x)) != x {
			return nil, fmt.Errorf("netmsg: int item %d overflows int", x)
		}
		v = int(x)
	case tagInt64:
		v = r.Varint()
	case tagUint64:
		v = r.Uvarint()
	case tagFloat64:
		v = math.Float64frombits(r.Uvarint())
	case tagBool:
		v = r.Bool()
	default:
		if r.Err() == nil {
			return nil, fmt.Errorf("netmsg: unknown item tag %d", tag)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("netmsg: frame: %w", err)
	}
	return v, nil
}

// stream frames messages over one connection. Its buffers are reused from
// frame to frame, so a stream belongs to one goroutine.
type stream struct {
	r   *bufio.Reader
	w   *bufio.Writer
	in  []byte // the last frame read
	out []byte // the last frame encoded
}

func newStream(c io.ReadWriter) *stream {
	return &stream{r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// encode encodes f into the stream's output buffer.
func (s *stream) encode(f frame) error {
	b, err := appendFrame(s.out[:0], f)
	s.out = b
	return err
}

// write sends the encoded frame: length header and frame, one flush.
func (s *stream) write() error {
	var hdr [binary.MaxVarintLen64]byte
	if _, err := s.w.Write(binary.AppendUvarint(hdr[:0], uint64(len(s.out)))); err != nil {
		return err
	}
	if _, err := s.w.Write(s.out); err != nil {
		return err
	}
	return s.w.Flush()
}

// read reads one frame. A stream that ends between frames returns io.EOF.
func (s *stream) read() (frame, error) {
	n, err := wire.ReadUvarint(s.r)
	if err != nil {
		return frame{}, err
	}
	if n > maxFrame {
		return frame{}, fmt.Errorf("netmsg: frame length %d exceeds %d", n, maxFrame)
	}
	if uint64(cap(s.in)) < n {
		s.in = make([]byte, n)
	}
	s.in = s.in[:n]
	if _, err := io.ReadFull(s.r, s.in); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	return parseFrame(s.in)
}

// Stats counts frames.
type Stats struct {
	RequestsForwarded int64
	RepliesReturned   int64
}

var (
	requestsForwarded atomic.Int64
	repliesReturned   atomic.Int64
)

// GlobalStats returns package-wide frame counts.
func GlobalStats() Stats {
	return Stats{
		RequestsForwarded: requestsForwarded.Load(),
		RepliesReturned:   repliesReturned.Load(),
	}
}

// ExportConn serves the target port over one connection: each decoded
// request frame becomes a local RPC to target and the reply frame travels
// back. It returns when the connection or the port dies. The caller's
// reference to target covers the calls made here.
func ExportConn(conn io.ReadWriteCloser, target *ipc.Port) error {
	defer conn.Close()
	s := newStream(conn)
	t := sched.New("netmsg-export")
	for {
		req, err := s.read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		out := frame{op: req.op}
		resp, err := ipc.Call(t, target, req.op, req.body...)
		switch {
		case err != nil:
			out.err = err.Error()
		case resp.Err != nil:
			out.err = resp.Err.Error()
			resp.Destroy()
		default:
			out.body = resp.Body
			resp.Destroy()
		}
		if err := s.encode(out); err != nil {
			if err := s.encode(frame{op: out.op, err: err.Error()}); err != nil {
				return err
			}
		}
		if err := s.write(); err != nil {
			return err
		}
	}
}

// Export accepts connections and serves target on each until the listener
// closes. Run it on its own goroutine.
//
// Closing the listener is the shutdown path: Export closes every
// connection it is still serving — which unblocks their ExportConn
// goroutines out of the decode loop — and returns only after all of them
// have exited, so a daemon can tear down its network surface without
// leaking a goroutine per connected (or half-disconnected) client. A
// handler blocked inside the kernel RPC itself is not interruptible from
// here; the exporting side must destroy the target port (failing the call)
// before or alongside closing the listener.
func Export(l net.Listener, target *ipc.Port) {
	var (
		mu    sync.Mutex
		conns = make(map[io.Closer]struct{})
		wg    sync.WaitGroup
	)
	for {
		conn, err := l.Accept()
		if err != nil {
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
			wg.Wait()
			return
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ExportConn(conn, target)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
}

// ProxyConn builds the transparent local port for a connection to an
// exporting side. The returned port carries the creator's reference; the
// forwarder holds its own. Destroy the port to shut the proxy down (the
// connection closes and the forwarder exits).
//
// Requests are forwarded one at a time in arrival order — the message
// queue on the proxy port provides the buffering, exactly as a real port's
// queue would. Once the transport fails, the forwarder closes it and
// answers every later request with ErrConnection until the port is
// destroyed, so no caller waits on a connection that is gone.
func ProxyConn(conn io.ReadWriteCloser, name string) *ipc.Port {
	proxy := ipc.NewPort(name)
	proxy.TakeRef() // the forwarder's reference
	sched.Go("netmsg-proxy:"+name, func(t *sched.Thread) {
		defer conn.Close()
		defer proxy.Release(nil)
		s := newStream(conn)
		var broken error // the transport's failure, once it has failed
		for {
			req, err := proxy.Receive(t)
			if err != nil {
				return // proxy destroyed
			}
			var reply *ipc.Message
			if broken == nil {
				requestsForwarded.Add(1)
				if reply, broken = s.forward(req); broken != nil {
					conn.Close() // a stream out of step carries no further frame
				}
			}
			if broken != nil {
				reply = ipc.NewErrorReply(req, fmt.Errorf("%w: %v", ErrConnection, broken))
			}
			if reply != nil {
				repliesReturned.Add(1)
				if err := reply.Dest.Send(reply); err != nil {
					reply.Destroy()
				}
			}
			req.Destroy()
		}
	})
	return proxy
}

// forward sends req over the connection and builds the reply from the
// answering frame. A body that cannot be encoded fails only req; the error
// return reports a broken transport.
func (s *stream) forward(req *ipc.Message) (*ipc.Message, error) {
	if err := s.encode(frame{op: req.Op, body: req.Body}); err != nil {
		return ipc.NewErrorReply(req, err), nil
	}
	if err := s.write(); err != nil {
		return nil, err
	}
	f, err := s.read()
	if err != nil {
		return nil, err
	}
	if f.err != "" {
		return ipc.NewErrorReply(req, &RemoteError{Msg: f.err}), nil
	}
	return ipc.NewReply(req, f.body...), nil
}

// Proxy dials addr and returns the transparent port for it.
func Proxy(addr, name string) (*ipc.Port, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ProxyConn(conn, name), nil
}

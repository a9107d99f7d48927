// Package net is the distributed master-worker runtime: a master process
// drives worker processes (possibly on other machines) over TCP, replaying
// the same sim.Plan the in-process engine executes. It plays the role MPI
// plays in the paper's experiments, with the one-port model arising
// naturally: the master issues one blocking transfer at a time, while each
// worker computes in its own process and the socket buffers provide the
// input double-buffering of the optimized memory layout.
//
// Plan execution — buffer accounting, operation ordering, C-accumulation,
// failover — lives in internal/engine (Execute); this package only supplies
// the engine.Backend that moves blocks over sockets and the worker loop that
// applies them, so the loopback path is a strict correctness oracle:
// distributed C is bitwise-equal to in-process C.
//
// The wire format is length-prefixed binary frames whose block payloads
// reuse the framed float64 codec of internal/matrix (gob costs ~3× on large
// numeric slices, and the runtime moves thousands of 51 KB blocks).
package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/matrix"
)

// MsgKind labels protocol frames.
type MsgKind uint8

const (
	MsgHello     MsgKind = iota + 1 // worker → master: registration
	MsgChunk                        // master → worker: C chunk
	MsgInstall                      // master → worker: A/B panels, resident ones omitted when digest-addressed
	MsgFlush                        // master → worker: return the chunk
	MsgResult                       // worker → master: finished chunk
	MsgHeartbeat                    // bidirectional: liveness beacon / fleet keepalive
	MsgShutdown                     // master → worker: exit
	MsgRelease                      // master → worker: end the session, keep serving
	MsgHave                         // master → worker: job panel digests — which are resident?
	MsgHaveAck                      // worker → master: per-digest presence answer
	MsgCancel                       // master → worker: abandon the held chunk; worker → master: dropped-it ack
)

func (k MsgKind) String() string {
	switch k {
	case MsgHello:
		return "hello"
	case MsgChunk:
		return "chunk"
	case MsgInstall:
		return "install"
	case MsgFlush:
		return "flush"
	case MsgResult:
		return "result"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgShutdown:
		return "shutdown"
	case MsgRelease:
		return "release"
	case MsgHave:
		return "have"
	case MsgHaveAck:
		return "have-ack"
	case MsgCancel:
		return "cancel"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PanelRef names one panel of a digest-addressed Install frame: the digest
// of the full A row-panel (or B column-panel) the installment's blocks belong
// to, and whether the worker must serve those blocks from its cache
// (Resident) or from the frame's payload.
type PanelRef struct {
	D        cache.Digest
	Resident bool
}

// Msg is the single protocol envelope; fields irrelevant to a Kind stay at
// their zero values and are not encoded.
type Msg struct {
	Kind      MsgKind
	Name      string        // Hello: worker name
	Kernel    string        // Hello: worker's selected block-update kernel
	Heartbeat time.Duration // Hello: interval at which the worker will beat
	Chunk     matrix.Chunk  // Chunk / Install / Flush / Result
	K0, K1    int           // Install: inner panel range [K0, K1)
	T         int           // Install: full inner dimension (panel depth) when digest-addressed
	Blocks    []*matrix.Block
	Digests   []cache.Digest // Have: the job's distinct panel digests
	HaveBits  []bool         // HaveAck: per-queried-digest presence
	CacheOn   bool           // HaveAck: worker runs a panel cache at all
	Budget    int64          // HaveAck: the cache's payload byte budget (≤0: unbounded)
	ARefs     []PanelRef     // Install: one per chunk row, in row order; empty ⇔ every block on the wire
	BRefs     []PanelRef     // Install: one per chunk column, in column order; empty ⇔ every block on the wire
}

const (
	// frameMagic versions the whole protocol: a peer built against another
	// frame layout fails its first header check instead of misparsing.
	frameMagic      = 0x4d4d5033 // "MMP3"
	maxFramePayload = 1 << 30    // 1 GiB: far above any real installment
	maxNameLen      = 1 << 10

	// FrameHeaderLen is the fixed size of every frame's magic+kind+length
	// prefix. Peek-based consumers (WorkerConn.DrainBacklog) read whole
	// header-only frames by this length without consuming partial ones.
	FrameHeaderLen = 9
)

// PutFrameHeader encodes the magic+kind+u32-length frame prefix every
// protocol in this codebase shares (the worker protocol here, the client
// protocol of internal/serve) — the single owner of the header layout.
func PutFrameHeader(hdr []byte, magic uint32, kind uint8, payloadLen int) {
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	hdr[4] = kind
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(payloadLen))
}

// ParseFrameHeader decodes the shared frame prefix, rejecting a foreign or
// corrupt magic — the same check rejects a peer speaking another version of
// the protocol, so the error names both magics.
func ParseFrameHeader(hdr []byte, magic uint32) (kind uint8, payloadLen uint32, err error) {
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != magic {
		return 0, 0, fmt.Errorf("net: frame magic %q, want %q (peer speaks another protocol or version)", magicName(m), magicName(magic))
	}
	return hdr[4], binary.LittleEndian.Uint32(hdr[5:9]), nil
}

// magicName renders a frame magic the way the constants spell it ("MMP3").
func magicName(m uint32) string {
	return string([]byte{byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)})
}

// ReadList reads a u32-count-prefixed list of size-byte entries from a
// frame body, decoding each with get. A count whose entries cannot fit in
// what remains of the frame is rejected before anything is allocated, and
// the list grows as entries arrive, so neither a short frame nor a header
// that overstates its length reserves memory the frame never ships. An
// empty list decodes as nil.
func ReadList[T any](r *io.LimitedReader, size int, get func([]byte) T) ([]T, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(cnt[:]))
	if n*int64(size) > r.N {
		return nil, fmt.Errorf("list of %d entries overruns the frame's remaining %d bytes", n, r.N)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]T, 0, min(n, 1<<10))
	entry := make([]byte, size)
	for range n {
		if _, err := io.ReadFull(r, entry); err != nil {
			return nil, err
		}
		out = append(out, get(entry))
	}
	return out, nil
}

// putFrameHeader / parseFrameHeader bind the shared layout to this package's
// magic and message kinds; the stream reader and the idle-connection drain
// both go through parseFrameHeader.
func putFrameHeader(hdr []byte, kind MsgKind, payloadLen int) {
	PutFrameHeader(hdr, frameMagic, uint8(kind), payloadLen)
}

func parseFrameHeader(hdr []byte) (MsgKind, uint32, error) {
	kind, n, err := ParseFrameHeader(hdr, frameMagic)
	return MsgKind(kind), n, err
}

// payloadLen computes a frame's exact payload size from its fields, so
// WriteMsg can emit the length prefix first and then stream the payload —
// block data is written once, never staged in an intermediate buffer.
func payloadLen(m *Msg) (int, error) {
	blocksLen := func() int {
		n := 4 // count prefix
		for _, b := range m.Blocks {
			n += matrix.BlockWireSize(b.Q)
		}
		return n
	}
	switch m.Kind {
	case MsgHello:
		if len(m.Name) > maxNameLen {
			return 0, fmt.Errorf("net: worker name %d bytes long", len(m.Name))
		}
		if len(m.Kernel) > maxNameLen {
			return 0, fmt.Errorf("net: kernel name %d bytes long", len(m.Kernel))
		}
		return 6 + len(m.Name) + 2 + len(m.Kernel), nil
	case MsgChunk, MsgResult:
		return 16 + blocksLen(), nil
	case MsgInstall:
		if len(m.ARefs)+len(m.BRefs) > maxPanelRefs {
			return 0, fmt.Errorf("net: install frame with %d refs", len(m.ARefs)+len(m.BRefs))
		}
		return 16 + 12 + 4 + panelRefLen*len(m.ARefs) + 4 + panelRefLen*len(m.BRefs) + blocksLen(), nil
	case MsgFlush, MsgCancel:
		return 16, nil
	case MsgHeartbeat, MsgShutdown, MsgRelease:
		return 0, nil
	case MsgHave:
		if len(m.Digests) > maxPanelRefs {
			return 0, fmt.Errorf("net: have frame with %d digests", len(m.Digests))
		}
		return 4 + cache.DigestLen*len(m.Digests), nil
	case MsgHaveAck:
		if len(m.HaveBits) > maxPanelRefs {
			return 0, fmt.Errorf("net: have-ack frame with %d answers", len(m.HaveBits))
		}
		return 1 + 8 + 4 + len(m.HaveBits), nil
	default:
		return 0, fmt.Errorf("net: cannot encode message kind %d", m.Kind)
	}
}

// panelRefLen is the wire size of one PanelRef: digest + resident flag.
const panelRefLen = cache.DigestLen + 1

// maxPanelRefs bounds digest lists and panel-ref lists, far above any real
// job (a ref per block matrix row/column).
const maxPanelRefs = 1 << 22

// putPanelRefs writes a count-prefixed PanelRef list.
func putPanelRefs(w io.Writer, refs []PanelRef) error {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(refs)))
	if _, err := w.Write(cnt[:]); err != nil {
		return fmt.Errorf("net: write panel refs: %w", err)
	}
	var buf [panelRefLen]byte
	for _, r := range refs {
		copy(buf[:cache.DigestLen], r.D[:])
		buf[cache.DigestLen] = 0
		if r.Resident {
			buf[cache.DigestLen] = 1
		}
		if _, err := w.Write(buf[:]); err != nil {
			return fmt.Errorf("net: write panel refs: %w", err)
		}
	}
	return nil
}

// getPanelRefs reads a count-prefixed PanelRef list.
func getPanelRefs(r *io.LimitedReader) ([]PanelRef, error) {
	return ReadList(r, panelRefLen, func(b []byte) PanelRef {
		var p PanelRef
		copy(p.D[:], b)
		p.Resident = b[cache.DigestLen] != 0
		return p
	})
}

// WriteMsg writes one length-prefixed frame to w with a one-shot codec.
// Long-lived connections should hold a matrix.BlockCodec and use
// WriteMsgCodec so block payloads are staged through one reused buffer.
func WriteMsg(w io.Writer, m *Msg) error {
	return WriteMsgCodec(w, m, nil)
}

// WriteMsgCodec writes one length-prefixed frame to w, staging block
// payloads through bc (nil falls back to a one-shot codec).
func WriteMsgCodec(w io.Writer, m *Msg, bc *matrix.BlockCodec) error {
	if bc == nil {
		bc = &matrix.BlockCodec{}
	}
	n, err := payloadLen(m)
	if err != nil {
		return err
	}
	var hdr [FrameHeaderLen]byte
	putFrameHeader(hdr[:], m.Kind, n)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("net: write frame header: %w", err)
	}
	switch m.Kind {
	case MsgHello:
		var hello [6]byte
		binary.LittleEndian.PutUint32(hello[0:4], uint32(m.Heartbeat/time.Millisecond))
		binary.LittleEndian.PutUint16(hello[4:6], uint16(len(m.Name)))
		if _, err := w.Write(hello[:]); err != nil {
			return fmt.Errorf("net: write hello: %w", err)
		}
		if _, err := io.WriteString(w, m.Name); err != nil {
			return fmt.Errorf("net: write hello name: %w", err)
		}
		var kl [2]byte
		binary.LittleEndian.PutUint16(kl[:], uint16(len(m.Kernel)))
		if _, err := w.Write(kl[:]); err != nil {
			return fmt.Errorf("net: write hello kernel: %w", err)
		}
		if _, err := io.WriteString(w, m.Kernel); err != nil {
			return fmt.Errorf("net: write hello kernel: %w", err)
		}
	case MsgChunk, MsgResult:
		if err := putChunk(w, m.Chunk); err != nil {
			return err
		}
		if err := bc.WriteBlocks(w, m.Blocks); err != nil {
			return err
		}
	case MsgFlush, MsgCancel:
		if err := putChunk(w, m.Chunk); err != nil {
			return err
		}
	case MsgHeartbeat, MsgShutdown, MsgRelease:
		// empty payload
	case MsgHave:
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], uint32(len(m.Digests)))
		if _, err := w.Write(cnt[:]); err != nil {
			return fmt.Errorf("net: write have: %w", err)
		}
		for _, d := range m.Digests {
			if _, err := w.Write(d[:]); err != nil {
				return fmt.Errorf("net: write have: %w", err)
			}
		}
	case MsgHaveAck:
		ack := make([]byte, 1+8+4+len(m.HaveBits))
		if m.CacheOn {
			ack[0] = 1
		}
		binary.LittleEndian.PutUint64(ack[1:9], uint64(m.Budget))
		binary.LittleEndian.PutUint32(ack[9:13], uint32(len(m.HaveBits)))
		for i, h := range m.HaveBits {
			if h {
				ack[13+i] = 1
			}
		}
		if _, err := w.Write(ack); err != nil {
			return fmt.Errorf("net: write have-ack: %w", err)
		}
	case MsgInstall:
		if err := putChunk(w, m.Chunk); err != nil {
			return err
		}
		var kr [12]byte
		binary.LittleEndian.PutUint32(kr[0:4], uint32(m.K0))
		binary.LittleEndian.PutUint32(kr[4:8], uint32(m.K1))
		binary.LittleEndian.PutUint32(kr[8:12], uint32(m.T))
		if _, err := w.Write(kr[:]); err != nil {
			return fmt.Errorf("net: write panel range: %w", err)
		}
		if err := putPanelRefs(w, m.ARefs); err != nil {
			return err
		}
		if err := putPanelRefs(w, m.BRefs); err != nil {
			return err
		}
		if err := bc.WriteBlocks(w, m.Blocks); err != nil {
			return err
		}
	}
	return nil
}

// ReadMsg reads one frame from r. The payload is decoded straight off the
// stream through an io.LimitedReader rather than staged in a frame-sized
// buffer: allocation tracks bytes that actually arrive, so a hostile 9-byte
// header cannot reserve a gigabyte, and large block frames cost one copy,
// mirroring the write side.
func ReadMsg(r io.Reader) (*Msg, error) {
	return ReadMsgCodec(r, nil)
}

// ReadMsgCodec reads one frame from r, decoding block payloads through bc —
// with a pooled codec, a connection's receive loop stops allocating once
// warm (nil falls back to a one-shot codec).
func ReadMsgCodec(r io.Reader, bc *matrix.BlockCodec) (*Msg, error) {
	if bc == nil {
		bc = &matrix.BlockCodec{}
	}
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("net: read frame header: %w", err)
	}
	kind, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("net: implausible frame payload %d bytes", n)
	}
	buf := &io.LimitedReader{R: r, N: int64(n)}

	m := &Msg{Kind: kind}
	switch kind {
	case MsgHello:
		var hdr [6]byte
		if _, err = io.ReadFull(buf, hdr[:]); err != nil {
			break
		}
		m.Heartbeat = time.Duration(binary.LittleEndian.Uint32(hdr[0:4])) * time.Millisecond
		nameLen := int(binary.LittleEndian.Uint16(hdr[4:6]))
		if nameLen > maxNameLen {
			return nil, fmt.Errorf("net: hello name %d bytes long", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err = io.ReadFull(buf, name); err != nil {
			break
		}
		m.Name = string(name)
		var kl [2]byte
		if _, err = io.ReadFull(buf, kl[:]); err != nil {
			break
		}
		kernelLen := int(binary.LittleEndian.Uint16(kl[:]))
		if kernelLen > maxNameLen {
			return nil, fmt.Errorf("net: hello kernel name %d bytes long", kernelLen)
		}
		kn := make([]byte, kernelLen)
		if _, err = io.ReadFull(buf, kn); err != nil {
			break
		}
		m.Kernel = string(kn)
	case MsgChunk, MsgResult:
		if m.Chunk, err = getChunk(buf); err != nil {
			break
		}
		m.Blocks, err = bc.ReadBlocks(buf)
	case MsgFlush, MsgCancel:
		m.Chunk, err = getChunk(buf)
	case MsgHeartbeat, MsgShutdown, MsgRelease:
		// empty payload
	case MsgHave:
		m.Digests, err = ReadList(buf, cache.DigestLen, func(b []byte) (d cache.Digest) {
			copy(d[:], b)
			return d
		})
	case MsgHaveAck:
		var hdr [9]byte
		if _, err = io.ReadFull(buf, hdr[:]); err != nil {
			break
		}
		m.CacheOn = hdr[0] != 0
		m.Budget = int64(binary.LittleEndian.Uint64(hdr[1:9]))
		m.HaveBits, err = ReadList(buf, 1, func(b []byte) bool { return b[0] != 0 })
	case MsgInstall:
		if m.Chunk, err = getChunk(buf); err != nil {
			break
		}
		var kr [12]byte
		if _, err = io.ReadFull(buf, kr[:]); err != nil {
			break
		}
		m.K0 = int(int32(binary.LittleEndian.Uint32(kr[0:4])))
		m.K1 = int(int32(binary.LittleEndian.Uint32(kr[4:8])))
		m.T = int(int32(binary.LittleEndian.Uint32(kr[8:12])))
		if m.ARefs, err = getPanelRefs(buf); err != nil {
			break
		}
		if m.BRefs, err = getPanelRefs(buf); err != nil {
			break
		}
		m.Blocks, err = bc.ReadBlocks(buf)
	default:
		return nil, fmt.Errorf("net: unknown message kind %d", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("net: decode %s: %w", kind, err)
	}
	if buf.N != 0 {
		// Erroring without consuming the remainder is fine: framing is
		// unrecoverable at this point and the session ends.
		return nil, fmt.Errorf("net: %s frame has %d trailing bytes", kind, buf.N)
	}
	return m, nil
}

func putChunk(w io.Writer, ch matrix.Chunk) error {
	var b [16]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(ch.Row0))
	binary.LittleEndian.PutUint32(b[4:8], uint32(ch.Col0))
	binary.LittleEndian.PutUint32(b[8:12], uint32(ch.H))
	binary.LittleEndian.PutUint32(b[12:16], uint32(ch.W))
	if _, err := w.Write(b[:]); err != nil {
		return fmt.Errorf("net: write chunk coords: %w", err)
	}
	return nil
}

func getChunk(r io.Reader) (matrix.Chunk, error) {
	var b [16]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return matrix.Chunk{}, err
	}
	return matrix.Chunk{
		Row0: int(int32(binary.LittleEndian.Uint32(b[0:4]))),
		Col0: int(int32(binary.LittleEndian.Uint32(b[4:8]))),
		H:    int(int32(binary.LittleEndian.Uint32(b[8:12]))),
		W:    int(int32(binary.LittleEndian.Uint32(b[12:16]))),
	}, nil
}

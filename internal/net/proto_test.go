package net

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/matrix"
)

func digest(seed int64) cache.Digest {
	var d cache.Digest
	rand.New(rand.NewSource(seed)).Read(d[:])
	return d
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randBlocks(t testing.TB, n, q int, seed int64) []*matrix.Block {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*matrix.Block, n)
	for i := range out {
		out[i] = matrix.NewBlock(q)
		out[i].FillRandom(rng)
	}
	return out
}

func roundTrip(t *testing.T, m *Msg) *Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, m); err != nil {
		t.Fatalf("write %s: %v", m.Kind, err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatalf("read %s: %v", m.Kind, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%s: %d bytes left after read", m.Kind, buf.Len())
	}
	return got
}

// everyKind returns one message of every protocol kind (both shapes of the
// install frame: plain and digest-addressed).
func everyKind(t testing.TB) []*Msg {
	ch := matrix.Chunk{Row0: 3, Col0: 7, H: 2, W: 4}
	return []*Msg{
		{Kind: MsgHello, Name: "node-17", Kernel: "avx2", Heartbeat: 250 * time.Millisecond},
		{Kind: MsgChunk, Chunk: ch, Blocks: randBlocks(t, ch.Blocks(), 2, 1)},
		{Kind: MsgInstall, Chunk: ch, K0: 2, K1: 5, Blocks: randBlocks(t, 3*(ch.H+ch.W), 2, 2)},
		{Kind: MsgInstall, Chunk: ch, K0: 2, K1: 5, T: 9,
			ARefs: []PanelRef{{D: digest(4)}, {D: digest(5), Resident: true}},
			BRefs: []PanelRef{{D: digest(6), Resident: true}, {D: digest(7)}, {D: digest(6), Resident: true}, {D: digest(8)}},
			// 1 non-resident A row and 2 non-resident B columns at depth 3.
			Blocks: randBlocks(t, 3+2*3, 2, 7)},
		{Kind: MsgFlush, Chunk: ch},
		{Kind: MsgCancel, Chunk: ch},
		{Kind: MsgResult, Chunk: ch, Blocks: randBlocks(t, ch.Blocks(), 2, 3)},
		{Kind: MsgHeartbeat},
		{Kind: MsgShutdown},
		{Kind: MsgRelease},
		{Kind: MsgHave, Digests: []cache.Digest{digest(1), digest(2), digest(3)}},
		{Kind: MsgHaveAck, CacheOn: true, Budget: 256 << 20, HaveBits: []bool{true, false, true}},
		{Kind: MsgHaveAck, HaveBits: []bool{false, false}},
	}
}

// msgDiff reports the first field on which two messages differ ("" when
// equal); block payloads compare bit-for-bit.
func msgDiff(a, b *Msg) string {
	switch {
	case a.Kind != b.Kind || a.Name != b.Name || a.Kernel != b.Kernel || a.Heartbeat != b.Heartbeat:
		return "hello fields"
	case a.Chunk != b.Chunk || a.K0 != b.K0 || a.K1 != b.K1 || a.T != b.T ||
		a.CacheOn != b.CacheOn || a.Budget != b.Budget:
		return "scalar fields"
	case !slicesEqual(a.Digests, b.Digests) || !slicesEqual(a.HaveBits, b.HaveBits) ||
		!slicesEqual(a.ARefs, b.ARefs) || !slicesEqual(a.BRefs, b.BRefs):
		return "lists"
	case len(a.Blocks) != len(b.Blocks):
		return "block count"
	}
	for i := range a.Blocks {
		if a.Blocks[i].Q != b.Blocks[i].Q {
			return "block edge"
		}
		for j, v := range a.Blocks[i].Data {
			if math.Float64bits(v) != math.Float64bits(b.Blocks[i].Data[j]) {
				return "block payload"
			}
		}
	}
	return ""
}

// TestProtoRoundTripEveryKind encodes and decodes one message of every
// protocol kind and checks all fields survive bit-for-bit.
func TestProtoRoundTripEveryKind(t *testing.T) {
	for _, m := range everyKind(t) {
		if d := msgDiff(roundTrip(t, m), m); d != "" {
			t.Errorf("%s: %s mangled", m.Kind, d)
		}
	}
}

// FuzzReadMsg feeds arbitrary bytes to the frame decoder: it must never
// panic, and whatever it accepts must re-encode into a frame that decodes
// to the same fields.
func FuzzReadMsg(f *testing.F) {
	for _, m := range everyKind(f) {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", m.Kind, err)
		}
		again, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", m.Kind, err)
		}
		if d := msgDiff(again, m); d != "" {
			t.Fatalf("%s: %s differ after re-encoding", m.Kind, d)
		}
	})
}

// TestProtoListCountsBoundedByFrame sends frames whose list counts promise
// far more entries than the frame carries: the decoder must fail without
// allocating for the promised entries.
func TestProtoListCountsBoundedByFrame(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cases := []struct {
		name string
		kind MsgKind
		body []byte
	}{
		{"have digests", MsgHave, u32(1 << 22)},
		{"have-ack answers", MsgHaveAck, append(make([]byte, 1+8), u32(1<<30)...)},
		{"install refs", MsgInstall, append(make([]byte, 16+12), u32(1<<22)...)},
		{"chunk block edge", MsgChunk, append(append(make([]byte, 16), u32(1)...), append(u32(0x424c4b31), u32(1<<14)...)...)},
	}
	for _, c := range cases {
		frame := make([]byte, FrameHeaderLen, FrameHeaderLen+len(c.body))
		putFrameHeader(frame, c.kind, len(c.body))
		frame = append(frame, c.body...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadMsg(bytes.NewReader(frame))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte frame accepted", c.name, len(frame))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: %d-byte frame allocated %d bytes before failing", c.name, len(frame), grew)
		}
	}
}

// TestProtoRejectsOtherVersion checks a previous-version worker fails
// registration with an error naming both frame magics.
func TestProtoRejectsOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A version-2 hello: heartbeat ms, name length, name, kernel length,
		// kernel. Version 2 differs only in the have-ack layout, so the magic
		// is the only thing that can reject it.
		body := append(binary.LittleEndian.AppendUint32(nil, 500), 2, 0, 'v', '2', 0, 0)
		frame := make([]byte, FrameHeaderLen)
		PutFrameHeader(frame, 0x4d4d5032, uint8(MsgHello), len(body))
		conn.Write(append(frame, body...))
		io.Copy(io.Discard, conn)
	}()
	_, err = DialWorkerContext(context.Background(), ln.Addr().String(), &MasterOptions{DialTimeout: 5 * time.Second})
	if err == nil || !strings.Contains(err.Error(), `"MMP2"`) || !strings.Contains(err.Error(), `"MMP3"`) {
		t.Fatalf("v2 hello: got %v, want an error naming MMP2 and MMP3", err)
	}
}

// TestProtoStreamOfMessages checks framing survives back-to-back messages on
// one stream, as the socket carries them.
func TestProtoStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	ch := matrix.Chunk{H: 1, W: 1}
	sent := []*Msg{
		{Kind: MsgChunk, Chunk: ch, Blocks: randBlocks(t, 1, 3, 4)},
		{Kind: MsgHeartbeat},
		{Kind: MsgInstall, Chunk: ch, K0: 0, K1: 1, Blocks: randBlocks(t, 2, 3, 5)},
		{Kind: MsgFlush, Chunk: ch},
	}
	for _, m := range sent {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Kind != want.Kind {
			t.Fatalf("message %d: kind %s, want %s", i, got.Kind, want.Kind)
		}
	}
}

func TestProtoRejectsGarbage(t *testing.T) {
	if _, err := ReadMsg(bytes.NewReader([]byte("this is not a frame, not even close"))); err == nil {
		t.Error("garbage magic accepted")
	}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Msg{Kind: MsgChunk, Chunk: matrix.Chunk{H: 1, W: 1}, Blocks: randBlocks(t, 1, 4, 6)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMsg(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Error("truncated frame accepted")
	}
	if err := WriteMsg(&buf, &Msg{Kind: MsgKind(99)}); err == nil {
		t.Error("unknown kind encoded")
	}
}

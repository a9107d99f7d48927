package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/obs"
)

func testBlocks(rng *rand.Rand, n, q int) []*matrix.Block {
	out := make([]*matrix.Block, n)
	for i := range out {
		out[i] = matrix.NewBlock(q)
		out[i].FillRandom(rng)
	}
	return out
}

func testDigests(rng *rand.Rand, n int) []cache.Digest {
	out := make([]cache.Digest, n)
	for i := range out {
		rng.Read(out[i][:])
	}
	return out
}

// everyClientKind returns one frame of every client-protocol kind; the
// submit frame comes plain, classed, and classed with panel digests.
func everyClientKind() []*clientMsg {
	rng := rand.New(rand.NewSource(9))
	submit := func(class JobClass, rows, cols []cache.Digest) *clientMsg {
		return &clientMsg{Kind: cSubmit, R: 2, S: 3, T: 2, Q: 2, Class: class, Rows: rows, Cols: cols,
			Blocks: testBlocks(rng, 2*2+2*3+2*3, 2)}
	}
	return []*clientMsg{
		submit(ClassStandard, nil, nil),
		submit(ClassInteractive, nil, nil),
		submit(ClassBatch, testDigests(rng, 2), testDigests(rng, 3)),
		{Kind: cAccept, ID: 42},
		{Kind: cResult, ID: 42, Blocks: testBlocks(rng, 6, 2)},
		{Kind: cError, ID: 7, Err: "no workers left"},
		{Kind: cStatus},
		{Kind: cStats, Stats: []byte(`{"queued":0}`)},
		{Kind: cCancel, ID: 5},
		{Kind: cJoin, Addr: "10.0.0.7:9801", SpecC: 0.5, SpecW: 2.25, SpecM: 60},
		{Kind: cTrace, ID: 9},
		{Kind: cTraceData, ID: 9, Stats: []byte(`{"events":[]}`)},
	}
}

// clientMsgDiff reports the first field on which two frames differ ("" when
// equal); block payloads compare bit-for-bit.
func clientMsgDiff(a, b *clientMsg) string {
	switch {
	case a.Kind != b.Kind || a.R != b.R || a.S != b.S || a.T != b.T || a.Q != b.Q || a.Class != b.Class:
		return "submit header"
	case a.ID != b.ID || a.Err != b.Err || !bytes.Equal(a.Stats, b.Stats):
		return "reply fields"
	case a.Addr != b.Addr || a.SpecM != b.SpecM ||
		math.Float64bits(a.SpecC) != math.Float64bits(b.SpecC) || math.Float64bits(a.SpecW) != math.Float64bits(b.SpecW):
		return "join fields"
	case !slices.Equal(a.Rows, b.Rows) || !slices.Equal(a.Cols, b.Cols):
		return "digest lists"
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

// TestClientProtoRoundTrip encodes and decodes one frame of every client
// protocol kind and checks all fields survive bit-for-bit — including a
// classed submit without digests, whose empty lists must decode as "no
// digests" unambiguously.
func TestClientProtoRoundTrip(t *testing.T) {
	for _, m := range everyClientKind() {
		var buf bytes.Buffer
		if err := writeClientMsg(&buf, m, nil); err != nil {
			t.Fatalf("%s: write: %v", m.Kind, err)
		}
		got, err := readClientMsg(&buf, nil)
		if err != nil {
			t.Fatalf("%s: read: %v", m.Kind, err)
		}
		if d := clientMsgDiff(got, m); d != "" {
			t.Errorf("%s: %s mangled: sent %+v got %+v", m.Kind, d, m, got)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d trailing bytes after decode", m.Kind, buf.Len())
		}
	}
}

// FuzzReadClientMsg feeds arbitrary bytes to the client-frame decoder — the
// daemon's port takes traffic from outside the process. It must never
// panic, and whatever it accepts must re-encode into a frame that decodes to
// the same fields.
func FuzzReadClientMsg(f *testing.F) {
	for _, m := range everyClientKind() {
		var buf bytes.Buffer
		if err := writeClientMsg(&buf, m, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readClientMsg(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeClientMsg(&buf, m, nil); err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", m.Kind, err)
		}
		again, err := readClientMsg(&buf, nil)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", m.Kind, err)
		}
		if d := clientMsgDiff(again, m); d != "" {
			t.Fatalf("%s: %s differ after re-encoding", m.Kind, d)
		}
	})
}

// TestClientProtoLengthsBoundedByFrame sends frames whose length fields
// promise far more than the frame carries: the decoder must fail without
// allocating for what was promised.
func TestClientProtoLengthsBoundedByFrame(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	id := make([]byte, 8)
	cases := []struct {
		name string
		kind clientKind
		body []byte
	}{
		{"submit digests", cSubmit, append(make([]byte, 17), u32(1<<22)...)},
		{"stats", cStats, u32(maxStatsLen)},
		{"trace data", cTraceData, append(id, u32(maxStatsLen)...)},
		{"error text", cError, append(id, u32(maxErrLen)...)},
	}
	for _, c := range cases {
		frame := make([]byte, mmnet.FrameHeaderLen, mmnet.FrameHeaderLen+len(c.body))
		mmnet.PutFrameHeader(frame, clientMagic, uint8(c.kind), len(c.body))
		frame = append(frame, c.body...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readClientMsg(bytes.NewReader(frame), nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte frame accepted", c.name, len(frame))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: %d-byte frame allocated %d bytes before failing", c.name, len(frame), grew)
		}
	}
}

// TestDaemonRejectsOtherVersion sends the daemon a submit framed with the
// previous client-protocol magic: it must close the connection without
// admitting anything and log an error naming both magics.
func TestDaemonRejectsOtherVersion(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	f, err := NewFleet(startWorkers(t, 1, nil), homSpecs(1), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	s := NewServer(f, Config{Logger: obs.LogfLogger(func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	})})
	t.Cleanup(s.Close)
	ln := startClientListener(t, s)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf bytes.Buffer
	if err := writeClientMsg(&buf, everyClientKind()[0], nil); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	binary.LittleEndian.PutUint32(frame[0:4], 0x4d4d5331) // "MMS1"
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("daemon answered a v1 submit (%d bytes) instead of closing", n)
	}
	if st := s.Status(); len(st.Jobs) != 0 {
		t.Errorf("v1 submit admitted %d jobs", len(st.Jobs))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, `"MMS1"`) && strings.Contains(line, `"MMS2"`) {
			return
		}
	}
	t.Errorf("no daemon log line names both magics; logged %q", logged)
}

// TestClientProtoRejectsGarbage checks the decoder fails cleanly on junk.
func TestClientProtoRejectsGarbage(t *testing.T) {
	if _, err := readClientMsg(bytes.NewReader([]byte("not a frame at all")), nil); err == nil {
		t.Error("garbage accepted as a client frame")
	}
	var buf bytes.Buffer
	if err := writeClientMsg(&buf, &clientMsg{Kind: cAccept, ID: 1}, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 200 // unknown kind
	if _, err := readClientMsg(bytes.NewReader(raw), nil); err == nil {
		t.Error("unknown frame kind accepted")
	}
}

// TestMatrixFromBlocksValidates covers the reassembly guards.
func TestMatrixFromBlocksValidates(t *testing.T) {
	if _, err := matrixFromBlocks(2, 2, 4, make([]*matrix.Block, 3)); err == nil {
		t.Error("wrong block count accepted")
	}
	bad := []*matrix.Block{matrix.NewBlock(4), matrix.NewBlock(8)}
	if _, err := matrixFromBlocks(1, 2, 4, bad); err == nil {
		t.Error("block edge mismatch accepted")
	}
}

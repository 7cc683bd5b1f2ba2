package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/aolog"
	"repro/internal/transport"
)

// proofSamples returns real proof responses (current head, fixed old
// size, degraded) and the nil-versus-empty corners JSON keeps apart.
func proofSamples(t testing.TB) []*ProofResponse {
	t.Helper()
	log, err := aolog.NewShardedLog(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		log.Append([]byte{byte(i), 'p'})
	}
	proof, err := log.ProveInclusionAt(17, 37)
	if err != nil {
		t.Fatal(err)
	}
	head := &aolog.BLSSignedHead{Size: 37, Head: log.SuperRoot(), Signature: bytes.Repeat([]byte{0x5A}, 48)}
	return []*ProofResponse{
		{Index: 17, Size: 37, Payload: []byte("payload"), Proof: proof, Head: head},
		{Index: 17, Size: 37, Payload: []byte("payload"), Proof: proof},
		{Index: 17, Size: 37, Payload: []byte("payload"), Proof: proof, Overloaded: true, StaleHead: head},
		{},
		{Payload: []byte{}, Head: &aolog.BLSSignedHead{}, StaleHead: &aolog.BLSSignedHead{Signature: []byte{}}},
		{Index: -1, Size: -2, Proof: &aolog.ShardInclusionProof{Inner: []aolog.Digest{}}},
	}
}

// roundTrips checks the differential property on one value: what JSON
// round-trips to, the binary form must round-trip to as well.
func roundTrips(t *testing.T, v *ProofResponse) {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON, viaBinary ProofResponse
	if err := json.Unmarshal(js, &viaJSON); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	bin, err := v.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary(%+v): %v", v, err)
	}
	if err := viaBinary.UnmarshalBinary(bin); err != nil {
		t.Fatalf("UnmarshalBinary of MarshalBinary(%+v): %v", v, err)
	}
	if !reflect.DeepEqual(&viaJSON, &viaBinary) {
		t.Fatalf("binary round trip differs from JSON's\n json:   %#v\n binary: %#v", viaJSON, viaBinary)
	}
	if !reflect.DeepEqual(v, &viaBinary) {
		t.Fatalf("binary round trip changed the value\n was: %#v\n got: %#v", v, viaBinary)
	}
	if err := viaBinary.UnmarshalBinary(append(bin, 0)); err == nil {
		t.Fatal("a trailing byte was accepted")
	}
	if err := viaBinary.UnmarshalBinary(bin[:len(bin)-1]); err == nil {
		t.Fatal("a truncated form was accepted")
	}
	if !reflect.DeepEqual(v, &viaBinary) {
		t.Fatal("a failed decode modified its target")
	}
}

func TestProofResponseBinaryMatchesJSON(t *testing.T) {
	for _, v := range proofSamples(t) {
		roundTrips(t, v)
	}
	var r ProofResponse
	if err := r.UnmarshalBinary([]byte{0x10, 0, 0, 0}); err == nil {
		t.Fatal("unknown flag bits were accepted")
	}
	// A payload length far beyond the input must fail before allocation.
	if err := r.UnmarshalBinary([]byte{0, 1, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); err == nil {
		t.Fatal("a payload length beyond the input was accepted")
	}
}

// requestForm is what the two request types with a binary form share.
type requestForm interface {
	AppendBinary([]byte) ([]byte, error)
	UnmarshalBinary([]byte) error
}

// requestForms makes a fresh value of each request type, filled with a
// sentinel a failed decode must leave in place.
var requestForms = []func() requestForm{
	func() requestForm { return &ProofRequest{Index: 12345, Size: -678} },
	func() requestForm { return &ConsistencyRequest{OldSize: -12345, NewSize: 678} },
}

// requestSamples are request forms' corners: zero ("the current head"),
// negative, beyond any int32, and the extremes of int.
func requestSamples() []requestForm {
	return []requestForm{
		&ProofRequest{}, &ProofRequest{Index: 41}, &ProofRequest{Index: 7, Size: 37},
		&ProofRequest{Index: -1, Size: -2}, &ProofRequest{Index: 1 << 40, Size: math.MaxInt},
		&ConsistencyRequest{}, &ConsistencyRequest{OldSize: 64}, &ConsistencyRequest{OldSize: 37, NewSize: 64},
		&ConsistencyRequest{OldSize: 64, NewSize: 37}, &ConsistencyRequest{OldSize: math.MinInt, NewSize: -1},
	}
}

// requestRoundTrips checks one request type against data: what data
// decodes to as JSON survives the binary round trip unchanged; what it
// decodes to as a binary form re-encodes to a fixed point; and a binary
// form it rejects leaves the receiver untouched.
func requestRoundTrips(t *testing.T, fresh func() requestForm, data []byte) {
	t.Helper()
	if v := fresh(); json.Unmarshal(data, v) == nil {
		bin, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatalf("AppendBinary(%+v): %v", v, err)
		}
		got := fresh()
		if err := got.UnmarshalBinary(bin); err != nil || !reflect.DeepEqual(v, got) {
			t.Fatalf("binary round trip of %+v gave %+v (%v)", v, got, err)
		}
	}
	got := fresh()
	if err := got.UnmarshalBinary(data); err != nil {
		if !reflect.DeepEqual(got, fresh()) {
			t.Fatalf("a rejected form (%v) modified its target: %+v", err, got)
		}
		return
	}
	bin, err := got.AppendBinary(nil)
	if err != nil {
		t.Fatalf("decoded request does not re-encode: %v", err)
	}
	again := fresh()
	if err := again.UnmarshalBinary(bin); err != nil || !reflect.DeepEqual(got, again) {
		t.Fatalf("decode, encode, decode is not a fixed point (%v)", err)
	}
	if again, _ := again.AppendBinary(nil); !bytes.Equal(again, bin) {
		t.Fatalf("re-encoding %x gave %x", bin, again)
	}
}

func TestRequestBinaryMatchesJSON(t *testing.T) {
	for _, v := range requestSamples() {
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, fresh := range requestForms {
			requestRoundTrips(t, fresh, js)
			requestRoundTrips(t, fresh, bin)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface().(requestForm)
		if err := got.UnmarshalBinary(bin); err != nil || !reflect.DeepEqual(v, got) {
			t.Fatalf("%+v: binary round trip gave %+v (%v)", v, got, err)
		}
		for cut := 0; cut < len(bin); cut++ {
			if err := got.UnmarshalBinary(bin[:cut]); err == nil {
				t.Fatalf("%+v: %d of %d bytes accepted", v, cut, len(bin))
			}
		}
		if err := got.UnmarshalBinary(append(bin, 0)); err == nil {
			t.Fatalf("%+v: a trailing byte accepted", v)
		}
		if !reflect.DeepEqual(v, got) {
			t.Fatalf("%+v: a failed decode modified its target: %+v", v, got)
		}
	}
	// A varint past 64 bits, at the tenth byte or at an eleventh.
	for _, bad := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0},
		{0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		for _, fresh := range requestForms {
			got := fresh()
			if err := got.UnmarshalBinary(bad); err == nil || !reflect.DeepEqual(got, fresh()) {
				t.Fatalf("%x: accepted or modified its target (%v): %+v", bad, err, got)
			}
		}
	}
}

// FuzzBinaryVsJSON is aolog's target of the same name for the types
// with a binary form in this package. data is read as JSON — any
// ProofResponse, ProofRequest or ConsistencyRequest it decodes to must
// survive the binary round trip exactly as it survives JSON's — and as a
// binary form of each, which must never panic the decoder, where
// accepted must re-encode to a fixed point, and where rejected must
// leave its target untouched.
func FuzzBinaryVsJSON(f *testing.F) {
	for _, v := range proofSamples(f) {
		js, _ := json.Marshal(v)
		f.Add(js)
		bin, _ := v.MarshalBinary()
		f.Add(bin)
		f.Add(bin[:len(bin)/2])
	}
	f.Add([]byte{0x0F, 1, 1, 0})
	f.Add([]byte{})
	// The request forms' family: JSON and binary of each sample, every
	// binary form cut short and with a trailing byte, ints past int64 in
	// JSON and past 64 bits as varints.
	for _, v := range requestSamples() {
		js, _ := json.Marshal(v)
		f.Add(js)
		bin, _ := v.AppendBinary(nil)
		f.Add(bin)
		f.Add(bin[:len(bin)-1])
		f.Add(append(bin, 0x01))
	}
	f.Add([]byte(`{"index":9223372036854775808,"size":-9223372036854775809}`))
	f.Add([]byte(`{"old_size":-1,"new_size":1e3}`))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range requestForms {
			requestRoundTrips(t, fresh, data)
		}
		var v ProofResponse
		if json.Unmarshal(data, &v) == nil {
			if _, err := v.MarshalBinary(); err == nil {
				roundTrips(t, &v)
			}
		}
		var got, again ProofResponse
		if got.UnmarshalBinary(data) != nil {
			return
		}
		bin, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded response does not re-encode: %v", err)
		}
		if err := again.UnmarshalBinary(bin); err != nil || !reflect.DeepEqual(&got, &again) {
			t.Fatalf("decode, encode, decode is not a fixed point (%v)", err)
		}
	})
}

// TestTamperedV2ProofReplyFails is bench's -selftest one layer down: a
// "proof" reply is captured off a wire-v2 connection to a real tier,
// frame header and all, and replayed to a real transport.Client once per
// byte with that byte flipped. Every replay must end in an error — the
// frame, the envelope or the body does not decode — or in a response
// that fails the checks an auditing client runs: it is the index and
// size that were asked for, its proof verifies under its head, and its
// head verifies under the monitor's key.
func TestTamperedV2ProofReplyFails(t *testing.T) {
	const leaves, index = 40, 17
	f := newFixture(t)
	f.append(t, leaves)
	tier := f.attach(t, Options{})
	defer tier.Close()
	srv := transport.NewServer()
	tier.Register(srv)
	ln := transport.NewMemListener()
	srv.Serve(ln)
	defer srv.Close()

	// Capture: one request with a JSON body, answered in binary.
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteFrame(conn, v2Request(1, KindProof, []byte(`{"index":17}`))); err != nil {
		t.Fatal(err)
	}
	payload, err := transport.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != 0xB2 || payload[1] != flagReply|4 {
		t.Fatalf("the reply is not a binary body in a reply envelope: %.60q", payload)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)

	pk := f.mon.BLSPublicKey()
	want, _, err := f.mon.ProveInclusionAt(index, leaves)
	if err != nil {
		t.Fatal(err)
	}
	// replay answers one proof call with the given frame and reports what
	// the caller ends up holding.
	replay := func(frame []byte) (*ProofResponse, error) {
		cli, fake := net.Pipe()
		c := transport.NewClient(cli)
		defer c.Close()
		c.SetTimeout(5 * time.Second)
		go func() {
			defer fake.Close() // a frame the client drops must not leave the call waiting
			if _, err := transport.ReadFrame(fake); err == nil {
				fake.Write(frame)
			}
		}()
		var resp ProofResponse
		if err := c.Call(KindProof, ProofRequest{Index: index}, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	audit := func(r *ProofResponse) bool {
		return r.Index == index && r.Size == leaves && !r.Overloaded && r.StaleHead == nil &&
			r.Proof != nil && r.Proof.GlobalIndex == index && r.Proof.TreeSize == leaves &&
			r.Head != nil && r.Head.Size == leaves && bytes.Equal(r.Payload, want) &&
			aolog.VerifyShardInclusion(r.Payload, r.Proof, r.Head.Head) &&
			aolog.VerifyHeadBLS(pk, r.Head)
	}
	if resp, err := replay(frame); err != nil || !audit(resp) {
		t.Fatalf("the untampered reply does not pass the audit (err %v)", err)
	}
	var undecodable int
	for i := range frame {
		tampered := bytes.Clone(frame)
		tampered[i] ^= 1
		resp, err := replay(tampered)
		if err == nil && audit(resp) {
			t.Fatalf("reply with byte %d of %d flipped decodes and passes the audit", i, len(frame))
		}
		if err != nil {
			undecodable++
		}
	}
	t.Logf("%d-byte v2 proof reply: %d flips fail to decode, %d decode and fail the audit", len(frame), undecodable, len(frame)-undecodable)
}

// v2Request builds a wire-v2 request payload by hand: the marker, flags
// (8 for a _batch, whose body is a container), the id, the kind, the body.
func v2Request(id uint64, kind string, body []byte) []byte {
	var flags byte
	if kind == transport.BatchKind {
		flags = flagBatch
	}
	return envelope(flags, id, kind, "", body)
}

// v2Container is the body of a _batch request: a count, then per entry
// flags 0, the kind and the length-prefixed body.
func v2Container(kinds []string, bodies [][]byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(kinds)))
	for i, kind := range kinds {
		b = append(binary.AppendUvarint(append(b, 0), uint64(len(kind))), kind...)
		b = append(binary.AppendUvarint(b, uint64(len(bodies[i]))), bodies[i]...)
	}
	return b
}

// TestBinaryRequestsAnswerLikeJSON: over a seeded set of proof and
// consistency requests — 0 and omitted fields, negative values, indexes
// and sizes beyond the head, old sizes above new ones — a request whose
// body is JSON and the same request whose body is the marker plus its
// binary form get byte-identical reply frames from a real tier, error
// replies included, alone and paired in a _batch as read_cold sends them.
func TestBinaryRequestsAnswerLikeJSON(t *testing.T) {
	const leaves = 40
	f := newFixture(t)
	f.append(t, leaves)
	tier := f.attach(t, Options{})
	defer tier.Close()
	srv := transport.NewServer()
	tier.Register(srv)
	ln := transport.NewMemListener()
	srv.Serve(ln)
	defer srv.Close()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(payload []byte) []byte {
		t.Helper()
		if err := transport.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		reply, err := transport.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}

	type request struct {
		kind string
		json []byte // nil: json.Marshal(in)
		in   requestForm
	}
	reqs := []request{
		{KindProof, []byte(`{}`), &ProofRequest{}},
		{KindProof, []byte(`{"index":3}`), &ProofRequest{Index: 3}},
		{"consistency", []byte(`{}`), &ConsistencyRequest{}},
		{"consistency", []byte(`{"old_size":12}`), &ConsistencyRequest{OldSize: 12}},
	}
	for _, in := range []requestForm{
		&ProofRequest{Index: leaves - 1}, &ProofRequest{Index: leaves}, &ProofRequest{Index: -1},
		&ProofRequest{Index: 5, Size: -3}, &ProofRequest{Index: 5, Size: leaves + 1}, &ProofRequest{Index: 9, Size: 9},
		&ProofRequest{Index: math.MaxInt, Size: math.MinInt},
		&ConsistencyRequest{OldSize: leaves}, &ConsistencyRequest{OldSize: leaves + 1}, &ConsistencyRequest{OldSize: -1},
		&ConsistencyRequest{OldSize: 30, NewSize: 20}, &ConsistencyRequest{OldSize: 5, NewSize: leaves + 7},
		&ConsistencyRequest{OldSize: 0, NewSize: 17}, &ConsistencyRequest{OldSize: 3, NewSize: -2},
	} {
		kind := "consistency"
		if _, ok := in.(*ProofRequest); ok {
			kind = KindProof
		}
		reqs = append(reqs, request{kind: kind, in: in})
	}
	rng := rand.New(rand.NewSource(3001))
	pick := func() int { return rng.Intn(leaves+8) - 4 }
	for i := 0; i < 60; i++ {
		reqs = append(reqs,
			request{kind: KindProof, in: &ProofRequest{Index: pick(), Size: pick()}},
			request{kind: "consistency", in: &ConsistencyRequest{OldSize: pick(), NewSize: pick()}})
	}

	bodies := func(r request) (js, bin []byte) {
		js = r.json
		if js == nil {
			var err error
			if js, err = json.Marshal(r.in); err != nil {
				t.Fatal(err)
			}
		}
		bin, err := r.in.AppendBinary([]byte{0xB2})
		if err != nil {
			t.Fatal(err)
		}
		return js, bin
	}
	var failed, answered int
	for i, r := range reqs {
		js, bin := bodies(r)
		// Which form goes first alternates, so a cache filled by the first
		// cannot hide a difference.
		first, second := js, bin
		if i%2 == 1 {
			first, second = bin, js
		}
		a, b := exchange(v2Request(1, r.kind, first)), exchange(v2Request(1, r.kind, second))
		if !bytes.Equal(a, b) {
			t.Fatalf("%s %+v: the JSON-body and binary-body replies differ\n %x\n %x", r.kind, r.in, a, b)
		}
		if a[1]&(1<<1) != 0 {
			failed++
		} else {
			answered++
		}
	}
	if failed == 0 || answered == 0 {
		t.Fatalf("%d error replies and %d answers: the set must exercise both", failed, answered)
	}
	for i := 0; i+1 < len(reqs); i += 2 {
		kinds := []string{reqs[i].kind, reqs[i+1].kind}
		js0, bin0 := bodies(reqs[i])
		js1, bin1 := bodies(reqs[i+1])
		a := exchange(v2Request(1, transport.BatchKind, v2Container(kinds, [][]byte{js0, js1})))
		b := exchange(v2Request(1, transport.BatchKind, v2Container(kinds, [][]byte{bin0, bin1})))
		if !bytes.Equal(a, b) {
			t.Fatalf("_batch of %+v and %+v: the JSON-body and binary-body replies differ\n %x\n %x", reqs[i].in, reqs[i+1].in, a, b)
		}
	}
}

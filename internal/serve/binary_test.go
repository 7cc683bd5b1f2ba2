package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// FuzzBinaryVsJSON is aolog's target of the same name for the fifth
// type with a binary form. data is read as JSON — any ProofResponse it
// decodes to must survive the binary round trip exactly as it survives
// JSON's — and as a binary form, which must never panic the decoder and,
// where accepted, must re-encode to something that decodes to the same
// value.
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

	f.Fuzz(func(t *testing.T, data []byte) {
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

	// Capture: one request carrying the offer, answered in v2.
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteFrame(conn, []byte(`{"id":1,"kind":"proof","body":{"index":17},"v":2}`)); err != nil {
		t.Fatal(err)
	}
	payload, err := transport.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] == '{' {
		t.Fatalf("the reply to a request offering v2 is JSON: %.60s", payload)
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

package aolog

import (
	"bytes"
	"encoding"
	"encoding/json"
	"reflect"
	"testing"
)

// binaryForm is what each of the read path's types offers.
type binaryForm interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// binaryTypes is one fresh value of each type with a binary form, in the
// order FuzzBinaryVsJSON's selector picks them.
func binaryTypes() []binaryForm {
	return []binaryForm{new(BLSSignedHead), new(ShardInclusionProof), new(ConsistencyProof), new(ShardConsistencyProof)}
}

// binarySamples returns real values of every type: proofs from a
// sharded log in which some shards grow, some do not and some are empty
// (so ShardConsistencyProof.Shards has nil entries), and the nil-versus-
// empty slice corners JSON keeps apart.
func binarySamples(t testing.TB) []binaryForm {
	t.Helper()
	s, err := NewShardedLog(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		s.Append([]byte{byte(i), 'x'})
	}
	incl, err := s.ProveInclusionAt(9, 23)
	if err != nil {
		t.Fatal(err)
	}
	grew, err := s.ProveConsistencyBetween(9, 23)
	if err != nil {
		t.Fatal(err)
	}
	partly, err := s.ProveConsistencyBetween(21, 23) // two shards did not grow: nil entries
	if err != nil {
		t.Fatal(err)
	}
	fromEmpty, err := s.ProveConsistencyBetween(0, 2) // empty prefixes
	if err != nil {
		t.Fatal(err)
	}
	var nils int
	for _, sp := range partly.Shards {
		if sp == nil {
			nils++
		}
	}
	if nils != 2 {
		t.Fatalf("sample consistency proof has %d nil shard entries, want 2", nils)
	}
	return []binaryForm{
		&BLSSignedHead{Size: 23, Head: s.SuperRoot(), Signature: bytes.Repeat([]byte{0xA5}, 48)},
		&BLSSignedHead{},                      // nil signature
		&BLSSignedHead{Signature: []byte{}},   // empty, not nil
		&BLSSignedHead{Size: ^uint64(0) >> 1}, // a size no log reaches
		incl,
		&ShardInclusionProof{},
		&ShardInclusionProof{GlobalIndex: -1, TreeSize: -7, Inner: []Digest{}, Super: nil},
		grew.Shards[0],
		&ConsistencyProof{Path: []Digest{}},
		grew, partly, fromEmpty,
		&ShardConsistencyProof{},
		&ShardConsistencyProof{Shards: []*ConsistencyProof{}, OldRoots: []Digest{}},
		&ShardConsistencyProof{NumShards: 2, Shards: []*ConsistencyProof{nil, {}}},
	}
}

// roundTrips checks the differential property on one value: what JSON
// round-trips to, the binary form must round-trip to as well.
func roundTrips(t *testing.T, v binaryForm) {
	t.Helper()
	fresh := func() binaryForm { return reflect.New(reflect.TypeOf(v).Elem()).Interface().(binaryForm) }
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	viaJSON := fresh()
	if err := json.Unmarshal(js, viaJSON); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	bin, err := v.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary(%+v): %v", v, err)
	}
	viaBinary := fresh()
	if err := viaBinary.UnmarshalBinary(bin); err != nil {
		t.Fatalf("UnmarshalBinary of MarshalBinary(%+v): %v", v, err)
	}
	if !reflect.DeepEqual(viaJSON, viaBinary) {
		t.Fatalf("binary round trip differs from JSON's\n json:   %#v\n binary: %#v", viaJSON, viaBinary)
	}
	if !reflect.DeepEqual(v, viaBinary) {
		t.Fatalf("binary round trip changed the value\n was: %#v\n got: %#v", v, viaBinary)
	}
	// Trailing bytes are rejected, and a failed decode leaves its target alone.
	before, _ := json.Marshal(viaBinary)
	if err := viaBinary.UnmarshalBinary(append(bin, 0)); err == nil {
		t.Fatalf("%T accepted a trailing byte", v)
	}
	if err := viaBinary.UnmarshalBinary(bin[:len(bin)-1]); err == nil {
		t.Fatalf("%T accepted a truncated form", v)
	}
	if after, _ := json.Marshal(viaBinary); !bytes.Equal(before, after) {
		t.Fatalf("%T: a failed decode modified its target", v)
	}
}

func TestBinaryRoundTripMatchesJSON(t *testing.T) {
	for _, v := range binarySamples(t) {
		roundTrips(t, v)
	}
}

// TestBinaryNilShardEntriesSurvive: the nil entries of Shards ("this
// shard did not grow") are part of the proof — wellFormed counts them
// and VerifyShardConsistency insists on them.
func TestBinaryNilShardEntriesSurvive(t *testing.T) {
	s, _ := NewShardedLog(4)
	for i := 0; i < 23; i++ {
		s.Append([]byte{byte(i)})
	}
	proof, err := s.ProveConsistencyBetween(21, 23)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got ShardConsistencyProof
	if err := got.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	oldRoot, _ := s.SuperRootAt(21)
	if !got.wellFormed() || !VerifyShardConsistency(oldRoot, s.SuperRoot(), &got) {
		t.Fatal("a consistency proof with nil shard entries does not verify after a binary round trip")
	}
	for j, sp := range proof.Shards {
		if (sp == nil) != (got.Shards[j] == nil) {
			t.Fatalf("shard %d: nil entry did not survive", j)
		}
	}
}

// TestBinaryDecodersBoundAllocation: a count is checked against its cap
// and against the bytes present before anything is allocated for it, and
// encoders refuse what decoders would.
func TestBinaryDecodersBoundAllocation(t *testing.T) {
	huge := appendInt(appendInt(nil, 1), 2)                 // OldSize, NewSize
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // a path of ~2^40 digests, none present
	var cp ConsistencyProof
	if err := cp.UnmarshalBinary(huge); err == nil {
		t.Fatal("a path count far beyond the input was accepted")
	}
	// Within the bytes present but beyond the cap.
	long := &ConsistencyProof{OldSize: 1, NewSize: 2, Path: make([]Digest, maxBinaryPath+1)}
	if _, err := long.MarshalBinary(); err == nil {
		t.Fatal("encoder accepted a path beyond the cap")
	}
	enc := appendInt(appendInt(nil, 1), 2)
	enc = appendInt(enc, maxBinaryPath+2) // count+1
	enc = append(enc, make([]byte, (maxBinaryPath+1)*DigestSize)...)
	if err := cp.UnmarshalBinary(enc); err == nil {
		t.Fatal("decoder accepted a path beyond the cap")
	}
	shards := &ShardConsistencyProof{Shards: make([]*ConsistencyProof, maxBinaryShards+1)}
	if _, err := shards.MarshalBinary(); err == nil {
		t.Fatal("encoder accepted a shard count beyond the cap")
	}
	enc = appendInt(appendInt(appendInt(nil, 0), 0), 0)
	enc = append(enc, 0, 0)                 // nil OldRoots, NewRoots
	enc = appendInt(enc, maxBinaryShards+2) // count+1
	enc = append(enc, make([]byte, maxBinaryShards+1)...)
	var scp ShardConsistencyProof
	if err := scp.UnmarshalBinary(enc); err == nil {
		t.Fatal("decoder accepted a shard count beyond the cap")
	}
	if err := scp.UnmarshalBinary([]byte{0, 0, 0, 0, 0, 2, 7}); err == nil {
		t.Fatal("decoder accepted a shard presence byte that is neither 0 nor 1")
	}
	var nilProof *ShardInclusionProof
	if _, err := nilProof.MarshalBinary(); err == nil {
		t.Fatal("nil proof marshalled")
	}
}

// FuzzBinaryVsJSON is the differential and hostile-input target for the
// four aolog types (which picks one). data is read twice. As JSON: any
// value it decodes to must survive the binary round trip exactly as it
// survives JSON's, nil and empty slices and nil shard entries included
// (values beyond the binary form's caps must be refused by the encoder,
// never mangled). As a binary form: the decoder must not panic, and what
// it accepts must re-encode to something it decodes to the same value.
func FuzzBinaryVsJSON(f *testing.F) {
	for _, v := range binarySamples(f) {
		var which int
		for i, typ := range binaryTypes() {
			if reflect.TypeOf(typ) == reflect.TypeOf(v) {
				which = i
			}
		}
		js, _ := json.Marshal(v)
		f.Add(uint8(which), js)
		bin, _ := v.MarshalBinary()
		f.Add(uint8(which), bin)
		f.Add(uint8(which), bin[:len(bin)/2])
	}
	f.Add(uint8(3), []byte(`{"OldSize":5,"NewSize":9,"NumShards":3,"OldRoots":[],"NewRoots":null,"Shards":[null,{"OldSize":1,"NewSize":2,"Path":[]},null]}`))
	f.Add(uint8(2), []byte{1, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		types := binaryTypes()
		v := types[int(which)%len(types)]
		if json.Unmarshal(data, v) == nil {
			if _, err := v.MarshalBinary(); err == nil {
				roundTrips(t, v)
			}
		}
		v = binaryTypes()[int(which)%len(types)]
		if v.UnmarshalBinary(data) != nil {
			return
		}
		bin, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		again := binaryTypes()[int(which)%len(types)]
		if err := again.UnmarshalBinary(bin); err != nil || !reflect.DeepEqual(v, again) {
			t.Fatalf("%T: decode, encode, decode is not a fixed point (%v)", v, err)
		}
	})
}

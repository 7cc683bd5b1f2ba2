// Package repro holds the top-level benchmark harness: one benchmark per
// row of the paper's Table 3 plus the deployment-level ablations listed
// in DESIGN.md §4. Run with:
//
//	go test -bench 'BenchmarkTable3' -benchmem .
//	go test -bench . -benchmem ./...
//
// cmd/benchtable3 prints the same Table 3 rows in the paper's format
// (including the percentage-increase column).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/hwnext"
	"repro/internal/sandbox"
	"repro/internal/tee"
	"repro/internal/transport"
)

var table3Msg = []byte("table 3 message: a 32-byte-ish m")

// BenchmarkTable3Baseline is Table 3 row 1: native share signing
// (hash-to-G1 plus scalar multiplication), no sandbox, no TEE.
func BenchmarkTable3Baseline(b *testing.B) {
	_, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	ks := &shares[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks.SignShare(table3Msg)
	}
}

// benchmarkSandboxRow measures one sandboxed-signing configuration.
func benchmarkSandboxRow(b *testing.B, moduleBytes []byte, hosts map[string]*sandbox.HostFunc) {
	b.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		b.Fatal(err)
	}
	fw, err := framework.New(dev.PublicKey(), nil, hosts)
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.Install(1, moduleBytes, dev.SignUpdate(1, moduleBytes)); err != nil {
		b.Fatal(err)
	}
	req := blsapp.EncodeSignRequest(0, table3Msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Invoke(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Sandbox is Table 3 row 2: the signing algorithm running
// as interpreted bytecode inside the framework's sandbox. It is the
// module trust domains sign with (DESIGN.md §2): a regular GLV window loop
// in the VM, with whole curve-group operations as host calls.
func BenchmarkTable3Sandbox(b *testing.B) {
	_, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkSandboxRow(b, blsapp.ModuleBytes(), blsapp.Hosts(blsapp.NewShareState(shares[0])))
}

// BenchmarkTable3TEESandbox is Table 3 row 3: the same module inside a
// simulated TEE deployment, which adds the host→enclave socket
// and the in-enclave framework<->application socket (AF_UNIX socketpairs,
// the vsock analogue: the two extra sockets §5 attributes the TEE
// overhead to).
func BenchmarkTable3TEESandbox(b *testing.B) {
	_, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := framework.NewDeveloper()
	if err != nil {
		b.Fatal(err)
	}
	vendor, err := tee.NewVendor(tee.VendorSimNitro)
	if err != nil {
		b.Fatal(err)
	}
	dom, err := domain.Start(domain.Config{
		Name:         "bench-tee",
		Vendor:       vendor,
		DeveloperKey: dev.PublicKey(),
		Hosts:        blsapp.Hosts(blsapp.NewShareState(shares[0])),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dom.Close()
	mb := blsapp.ModuleBytes()
	if err := dom.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		b.Fatal(err)
	}
	client, err := transport.Dial(dom.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	req := blsapp.EncodeSignRequest(0, table3Msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp domain.InvokeResponse
		if err := client.Call("invoke", domain.InvokeRequest{Request: req}, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3NextGenTEE extends Table 3 with the row §4.2 predicts:
// next-generation secure hardware that isolates the application binary
// directly, removing the software sandbox from the invoke path. The
// measured time should collapse toward the baseline plus whatever
// deployment sockets remain (here: none, matching the Sandbox row's
// in-process measurement conditions).
func BenchmarkTable3NextGenTEE(b *testing.B) {
	_, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	ks := &shares[0]
	dev, err := framework.NewDeveloper()
	if err != nil {
		b.Fatal(err)
	}
	v, err := tee.NewVendor(tee.VendorSimKeystone)
	if err != nil {
		b.Fatal(err)
	}
	enclave, err := v.Provision("hw", hwnext.MeasureNextGen(dev.PublicKey()))
	if err != nil {
		b.Fatal(err)
	}
	hf, err := hwnext.New(dev.PublicKey(), enclave)
	if err != nil {
		b.Fatal(err)
	}
	app := &hwnext.NativeApp{
		Bytes: []byte("bls-sign-share-native-v1"),
		Handler: func(req []byte) ([]byte, error) {
			epoch, msg, err := blsapp.DecodeSignRequestForNative(req)
			if err != nil {
				return nil, err
			}
			if epoch != ks.Epoch {
				return blsapp.EncodeStaleResponseForNative(ks.Epoch), nil
			}
			share := ks.SignShare(msg)
			return blsapp.EncodeSignResponseForNative(&share), nil
		},
	}
	hf.RegisterBinary(app)
	if err := hf.Install(1, app.Bytes, dev.SignUpdate(1, app.Bytes)); err != nil {
		b.Fatal(err)
	}
	req := blsapp.EncodeSignRequest(0, table3Msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hf.Invoke(req); err != nil {
			b.Fatal(err)
		}
	}
}

// deployForBench stands up an n-domain BLS deployment.
func deployForBench(b *testing.B, n int) (*core.Deployment, *bls.ThresholdKey, *framework.Developer) {
	b.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		b.Fatal(err)
	}
	vendors, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		b.Fatal(err)
	}
	var vendorList []*tee.Vendor
	for _, id := range tee.AllVendorIDs() {
		vendorList = append(vendorList, vendors[id])
	}
	t := (n + 1) / 2
	tk, shares, err := bls.ThresholdKeyGen(t, n)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := core.Deploy(core.Config{
		NumDomains: n,
		Developer:  dev,
		Vendors:    vendorList,
		Roots:      roots,
		AppModule:  blsapp.ModuleBytes(),
		AppVersion: 1,
		HostsFor: func(i int) map[string]*sandbox.HostFunc {
			return blsapp.Hosts(blsapp.NewShareState(shares[i]))
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	return dep, tk, dev
}

// Ablation A: audit cost as the number of trust domains grows.
func benchmarkAudit(b *testing.B, n int) {
	dep, _, _ := deployForBench(b, n)
	c := dep.AuditClient()
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := c.Audit()
		if err != nil {
			b.Fatal(err)
		}
		if !report.Consistent {
			b.Fatalf("inconsistent: %v", report.Findings)
		}
	}
}

func BenchmarkAuditDomains2(b *testing.B)  { benchmarkAudit(b, 2) }
func BenchmarkAuditDomains3(b *testing.B)  { benchmarkAudit(b, 3) }
func BenchmarkAuditDomains5(b *testing.B)  { benchmarkAudit(b, 5) }
func BenchmarkAuditDomains8(b *testing.B)  { benchmarkAudit(b, 8) }
func BenchmarkAuditDomains16(b *testing.B) { benchmarkAudit(b, 16) }

// Ablation D: end-to-end update latency (sign, ship to all domains,
// verify, log, sandbox restart) for a 3-domain deployment.
func BenchmarkUpdateEndToEnd(b *testing.B) {
	dep, _, dev := deployForBench(b, 3)
	base := blsapp.Module()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := *base
		m.Functions = append([]sandbox.Function{}, base.Functions...)
		pad := make([]sandbox.Instr, i%32+1)
		m.Functions[0].Code = append(append([]sandbox.Instr{}, base.Functions[0].Code...), pad...)
		su := dev.PrepareUpdate(uint64(i+2), m.Encode())
		for d := 0; d < dep.NumDomains(); d++ {
			if err := dep.PushUpdateTo(d, su, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Ablation: full threshold signature end to end across the deployment
// (t domains queried over their TEE socket paths, shares verified and
// combined, final signature verified).
func BenchmarkThresholdSignEndToEnd(b *testing.B) {
	dep, tk, _ := deployForBench(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := []byte(fmt.Sprintf("bench message %d", i))
		sig, err := blsapp.ThresholdSign(dep, tk, msg)
		if err != nil {
			b.Fatal(err)
		}
		if !bls.Verify(&tk.GroupKey, msg, sig) {
			b.Fatal("invalid signature")
		}
	}
}

// Ablation: misbehavior-proof verification cost (what a third party pays
// to check an equivocation claim).
func BenchmarkVerifyMisbehaviorProof(b *testing.B) {
	dev, err := framework.NewDeveloper()
	if err != nil {
		b.Fatal(err)
	}
	v, err := tee.NewVendor(tee.VendorSimKeystone)
	if err != nil {
		b.Fatal(err)
	}
	roots := tee.RootSet{tee.VendorSimKeystone: v.RootKey()}
	enclave, err := v.Provision("host", framework.Measure(dev.PublicKey()))
	if err != nil {
		b.Fatal(err)
	}
	_, benchShares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	fwA, _ := framework.New(dev.PublicKey(), enclave, blsapp.Hosts(blsapp.NewShareState(benchShares[0])))
	fwB, _ := framework.New(dev.PublicKey(), enclave, blsapp.Hosts(blsapp.NewShareState(benchShares[1])))
	mbA := blsapp.ModuleBytes()
	mB := blsapp.Module()
	mB.Functions[0].Code = append(mB.Functions[0].Code, sandbox.Instr{Op: sandbox.OpNop})
	mbB := mB.Encode()
	if err := fwA.Install(1, mbA, dev.SignUpdate(1, mbA)); err != nil {
		b.Fatal(err)
	}
	if err := fwB.Install(1, mbB, dev.SignUpdate(1, mbB)); err != nil {
		b.Fatal(err)
	}
	asA := fwA.AttestedStatus([]byte("na"))
	asB := fwB.AttestedStatus([]byte("nb"))
	params := audit.Params{
		Roots:       roots,
		Measurement: framework.Measure(dev.PublicKey()),
		Domains:     []audit.DomainInfo{{Name: "evil", HasTEE: true}},
	}
	proof := &audit.Misbehavior{
		Kind:   audit.MisbehaviorEquivocation,
		Domain: "evil",
		StatusA: &audit.AttestedStatusEnvelope{
			Nonce: []byte("na"),
			Resp:  domain.StatusResponse{Domain: "evil", Status: asA.Status, Quote: asA.Quote},
		},
		StatusB: &audit.AttestedStatusEnvelope{
			Nonce: []byte("nb"),
			Resp:  domain.StatusResponse{Domain: "evil", Status: asB.Status, Quote: asB.Quote},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := audit.VerifyMisbehavior(&params, proof); err != nil {
			b.Fatal(err)
		}
	}
}

// DESIGN.md §4.6 before/after rows: transparency-log append throughput.
// One benchmark op = append 10k entries to an empty log, producing a
// signed-tree-head root after every append (the monitor's steady-state
// pattern: every gossip submission updates the servable head).

// BenchmarkLogAppend10k measures the incremental MerkleLog: O(1) amortized
// hashing per append, O(log n) per root.
func BenchmarkLogAppend10k(b *testing.B) {
	payload := []byte("a status envelope sized log entry .....")
	var sink aolog.Digest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m aolog.MerkleLog
		for j := 0; j < 10000; j++ {
			m.Append(payload)
			sink = m.Root()
		}
	}
	_ = sink
}

// BenchmarkLogAppend10kRecompute is the seed implementation's cost model:
// leaf hashes cached, every interior node recomputed on every Root call
// (O(n) per root, O(n^2) over the run). Kept as the baseline the ≥10x
// claim in DESIGN.md §4.6 is measured against.
func BenchmarkLogAppend10kRecompute(b *testing.B) {
	payload := []byte("a status envelope sized log entry .....")
	var sink aolog.Digest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaves := make([]aolog.Digest, 0, 10000)
		for j := 0; j < 10000; j++ {
			leaves = append(leaves, aolog.LeafDigest(payload))
			sink = aolog.RootOfLeaves(leaves)
		}
	}
	_ = sink
}

// BenchmarkShardedLogAppendBatch10k is the server-side ingest path the
// monitor actually runs: 10k entries appended in batches of 64 to a
// 4-shard log, one super-root per batch (heads are served per gossip
// flush, not per entry).
func BenchmarkShardedLogAppendBatch10k(b *testing.B) {
	payload := []byte("a status envelope sized log entry .....")
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = payload
	}
	var sink aolog.Digest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := aolog.NewShardedLog(4)
		if err != nil {
			b.Fatal(err)
		}
		for s.Len() < 10000 {
			s.AppendBatch(batch)
			sink = s.SuperRoot()
		}
	}
	_ = sink
}

// DESIGN.md §4.7 before/after rows: auditor signature-verification
// throughput over a batch of BLS-signed tree heads (one monitor key, n
// distinct heads). One benchmark op = establish validity of all n heads.

func batchVerifyFixture(b *testing.B, n int) ([]*bls.PublicKey, [][]byte, []*bls.Signature) {
	b.Helper()
	sk, pk, err := bls.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	pks := make([]*bls.PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*bls.Signature, n)
	for i := 0; i < n; i++ {
		pks[i] = pk
		msgs[i] = []byte(fmt.Sprintf("signed tree head %d", i))
		sigs[i] = sk.Sign(msgs[i])
	}
	return pks, msgs, sigs
}

func benchmarkBatchVerify(b *testing.B, n int) {
	pks, msgs, sigs := batchVerifyFixture(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !bls.VerifyBatch(pks, msgs, sigs) {
			b.Fatal("batch rejected")
		}
	}
}

// benchmarkSequentialVerify is the seed path: one full pairing check (two
// Miller loops + a final exponentiation) per signature.
func benchmarkSequentialVerify(b *testing.B, n int) {
	pks, msgs, sigs := batchVerifyFixture(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			if !bls.Verify(pks[j], msgs[j], sigs[j]) {
				b.Fatal("signature rejected")
			}
		}
	}
}

func BenchmarkBatchVerify16(b *testing.B)       { benchmarkBatchVerify(b, 16) }
func BenchmarkBatchVerify256(b *testing.B)      { benchmarkBatchVerify(b, 256) }
func BenchmarkSequentialVerify16(b *testing.B)  { benchmarkSequentialVerify(b, 16) }
func BenchmarkSequentialVerify256(b *testing.B) { benchmarkSequentialVerify(b, 256) }

// Ablation: deployment bootstrap cost (what "simple for the developer"
// costs in machine time: provision TEEs, start domains, install the app).
func BenchmarkDeployBootstrap3(b *testing.B) {
	dev, err := framework.NewDeveloper()
	if err != nil {
		b.Fatal(err)
	}
	vendors, roots, err := tee.NewSimulatedEcosystem()
	if err != nil {
		b.Fatal(err)
	}
	var vendorList []*tee.Vendor
	for _, id := range tee.AllVendorIDs() {
		vendorList = append(vendorList, vendors[id])
	}
	_, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	mb := blsapp.ModuleBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := core.Deploy(core.Config{
			NumDomains: 3,
			Developer:  dev,
			Vendors:    vendorList,
			Roots:      roots,
			AppModule:  mb,
			AppVersion: 1,
			HostsFor: func(j int) map[string]*sandbox.HostFunc {
				return blsapp.Hosts(blsapp.NewShareState(shares[j]))
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		dep.Close()
	}
}

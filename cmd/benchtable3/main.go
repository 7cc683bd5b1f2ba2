// Command benchtable3 regenerates Table 3 of the paper: processing time
// for producing a BLS threshold signature share under three execution
// environments.
//
//	Execution Environment    Processing Time    Increase
//	Baseline                 <measured>         —
//	Sandbox                  <measured>         <x%>
//	TEE + Sandbox            <measured>         <y%>
//
// Baseline is the native share-signing operation (hash-to-G1 + scalar
// multiplication). Sandbox routes the request through the framework's
// bytecode sandbox (interpreted request handling, copy-in/copy-out,
// gas accounting). TEE + Sandbox additionally crosses the two extra
// loopback sockets of the simulated-enclave deployment, the same cost
// source the paper names for its +8.8 percentage points. Absolute times
// differ from the paper's c5.4xlarge/libBLS numbers; the ordering and
// rough shape are the reproduction target (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/domain"
	"repro/internal/framework"
	"repro/internal/tee"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	var (
		iters  = flag.Int("iters", 200, "iterations per row")
		warmup = flag.Int("warmup", 20, "warmup iterations per row")
	)
	flag.Parse()

	msg := []byte("table 3 message: a 32-byte-ish m")
	_, shares, err := bls.ThresholdKeyGen(2, 3)
	if err != nil {
		log.Fatalf("benchtable3: keygen: %v", err)
	}
	ks := &shares[0]

	// --- Row 1: Baseline (native share signing).
	baseline := measure(*warmup, *iters, func() {
		ks.SignShare(msg)
	})

	// --- Row 2: Sandbox (framework + bytecode VM, no TEE).
	dev, err := framework.NewDeveloper()
	if err != nil {
		log.Fatalf("benchtable3: %v", err)
	}
	fw, err := framework.New(dev.PublicKey(), nil, blsapp.FineHosts(blsapp.NewShareState(*ks)))
	if err != nil {
		log.Fatalf("benchtable3: %v", err)
	}
	mb := blsapp.FineModuleBytes()
	if err := fw.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		log.Fatalf("benchtable3: %v", err)
	}
	req := blsapp.EncodeSignRequest(0, msg)
	sandbox := measure(*warmup, *iters, func() {
		if _, err := fw.Invoke(req); err != nil {
			log.Fatalf("benchtable3: sandbox invoke: %v", err)
		}
	})

	// --- Row 3: TEE + Sandbox (simulated enclave; adds the host proxy
	// socket and the in-enclave framework<->application socket).
	vendor, err := tee.NewVendor(tee.VendorSimNitro)
	if err != nil {
		log.Fatalf("benchtable3: %v", err)
	}
	dom, err := domain.Start(domain.Config{
		Name:         "bench-tee",
		Vendor:       vendor,
		DeveloperKey: dev.PublicKey(),
		Hosts:        blsapp.FineHosts(blsapp.NewShareState(*ks)),
	})
	if err != nil {
		log.Fatalf("benchtable3: %v", err)
	}
	defer dom.Close()
	if err := dom.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		log.Fatalf("benchtable3: %v", err)
	}
	client := transport.DialManaged(dom.Addr(), transport.ManagedOptions{})
	defer client.Close()
	teeSandbox := measure(*warmup, *iters, func() {
		var resp domain.InvokeResponse
		if err := client.Call("invoke", domain.InvokeRequest{Request: req}, &resp); err != nil {
			log.Fatalf("benchtable3: tee invoke: %v", err)
		}
	})

	fmt.Printf("Table 3 — BLS threshold signature share processing time (%d iterations)\n\n", *iters)
	fmt.Printf("%-24s %-18s %s\n", "Execution Environment", "Processing Time", "Increase")
	fmt.Printf("%-24s %-18s %s\n", "Baseline", fmtDur(baseline), "—")
	fmt.Printf("%-24s %-18s %.1f%%\n", "Sandbox", fmtDur(sandbox), pct(sandbox, baseline))
	fmt.Printf("%-24s %-18s %.1f%%\n", "TEE + Sandbox", fmtDur(teeSandbox), pct(teeSandbox, baseline))
	fmt.Println()
	fmt.Printf("paper (c5.4xlarge, libBLS/Wasm/Nitro): 10.2ms / 14.9ms (+46.1%%) / 15.8ms (+54.9%%)\n")
	fmt.Printf("reproduction target: Baseline < Sandbox < TEE+Sandbox; TEE delta caused by 2 extra sockets\n")
}

// measure returns the mean wall time of fn over iters runs.
func measure(warmup, iters int, fn func()) time.Duration {
	for i := 0; i < warmup; i++ {
		fn()
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

func pct(d, base time.Duration) float64 {
	return (float64(d)/float64(base) - 1) * 100
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

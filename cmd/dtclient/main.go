// Command dtclient is the user-side tool for a running deployment
// (started with trustdomaind): it audits the deployment, requests
// threshold signatures (singly or in batches), and drives proactive
// share-refresh ceremonies.
//
//	dtclient -params deployment.json audit
//	dtclient -params deployment.json sign -msg "transfer 3 BTC"
//	dtclient -params deployment.json signbatch "msg one" "msg two" "msg three"
//	dtclient -params deployment.json refresh
//	dtclient -params deployment.json status -domain domain-1
//	dtclient -params deployment.json witnessaudit \
//	    -monitor 127.0.0.1:7070 -witnesses 127.0.0.1:7171,127.0.0.1:7172 \
//	    -quorum 2
//
// signbatch ships all messages to each domain in a single batched invoke
// RPC (one frame per domain instead of one per message) and verifies the
// collected signature shares with batched pairing checks.
//
// refresh moves every trust domain to the next share epoch (a fresh
// Shamir sharing of the same secret) through blsapp.RefreshCoordinator,
// the one refresh coordinator trustdomaind uses too: the ceremony package
// is durably recorded next to the parameters file before any domain is
// contacted (<params>.refresh-pending, removed on commit, re-driven on
// restart), every domain must acknowledge, the new epoch is probed with a
// real threshold signature, and the parameters file is rewritten with
// the rotated share keys and the new epoch pinned. The group public key —
// and every signature ever issued — is unchanged. Sign requests carry
// the epoch from the parameters file; if the deployment has since been
// refreshed the domains answer "stale epoch" and dtclient re-reads the
// parameters file once before giving up (see DESIGN.md §7).
//
// witnessaudit is the scale path for log auditing: instead of replaying a
// monitor's log, the client submits the head it saw to the witness set
// ("pollination") and accepts the frontier only with -quorum witness
// cosignatures — the source signature and every cosignature verified in
// one bls.VerifyBatch pairing check. Any equivocation proof surfaced by a
// witness (or detected by the client across witness answers) is verified
// offline and reported.
//
// Every subcommand runs to an error RETURN, not an exit, so deferred
// connection closes always execute — an early failure cannot leak
// half-open sockets into the daemons' connection tables. -rpc-timeout
// bounds both connection establishment and each individual call.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/core"
	"repro/internal/deployfile"
	"repro/internal/framework"
	"repro/internal/gossip"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// rootTrace, when valid, rides in the frame header of every RPC this
// invocation issues, so one `dtclient -trace audit` is followable in
// the daemons' logs and /traces pages by its trace id.
var rootTrace obsv.TraceContext

// rpcOpts applies -rpc-timeout to every connection: it bounds connection
// establishment and every individual RPC (0 disables the per-call
// deadline).
var rpcOpts transport.ManagedOptions

// errFindings marks a run that completed but reported misbehavior: the
// process exits nonzero without the "dtclient:" error banner (the
// findings were already printed).
var errFindings = errors.New("misbehavior findings reported")

func main() {
	log.SetFlags(0)
	paramsPath := flag.String("params", "deployment.json", "deployment parameters file from trustdomaind")
	trace := flag.Bool("trace", false, "send a sampled trace context with every RPC and print its id")
	rpcTimeout := flag.Duration("rpc-timeout", 10*time.Second, "connect timeout and per-call deadline for every RPC; 0 disables the per-call deadline")
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("dtclient: need a subcommand: audit | sign | signbatch | refresh | status | witnessaudit")
	}
	if *trace {
		rootTrace = obsv.NewTrace()
		fmt.Fprintf(os.Stderr, "trace %s\n", hex.EncodeToString(rootTrace.TraceID[:]))
	}
	rpcOpts = transport.ManagedOptions{ConnectTimeout: *rpcTimeout, CallTimeout: *rpcTimeout}

	file, err := deployfile.Read(*paramsPath)
	if err != nil {
		log.Fatalf("dtclient: %v", err)
	}
	params, err := file.Params()
	if err != nil {
		log.Fatalf("dtclient: %v", err)
	}

	switch flag.Arg(0) {
	case "audit":
		err = runAudit(params)
	case "sign":
		err = runSign(*paramsPath, file, params, flag.Args()[1:])
	case "signbatch":
		err = runSignBatch(*paramsPath, file, params, flag.Args()[1:])
	case "refresh":
		err = runRefresh(*paramsPath, file, params)
	case "status":
		err = runStatus(params, flag.Args()[1:])
	case "witnessaudit":
		err = runWitnessAudit(params, flag.Args()[1:])
	default:
		log.Fatalf("dtclient: unknown subcommand %q", flag.Arg(0))
	}
	if err != nil {
		// The deferred closes inside the run function have already
		// released every connection by the time the error reaches here.
		if errors.Is(err, errFindings) {
			os.Exit(1)
		}
		log.Fatalf("dtclient: %v", err)
	}
}

// dialRPC returns a managed client for addr with the tool's timeouts
// applied. Nothing is dialed until the first call.
func dialRPC(addr string) *transport.ManagedClient {
	return transport.DialManaged(addr, rpcOpts)
}

// rpcCtx is the context of every RPC made on a dialRPC client: it
// carries the tool's trace, when -trace minted one.
func rpcCtx() context.Context {
	return obsv.ContextWithTrace(context.Background(), rootTrace)
}

// newAuditClient builds an audit client with the tool's trace context
// and per-call deadline applied.
func newAuditClient(params audit.Params) *audit.Client {
	c := audit.NewClient(params)
	c.SetTrace(rootTrace)
	c.SetCallTimeout(rpcOpts.CallTimeout)
	return c
}

// newDomainClient builds the client that invokes the trust domains, with
// the tool's trace context and timeouts applied.
func newDomainClient(params audit.Params) *core.Client {
	c := core.NewClient(params, rpcOpts)
	c.SetTrace(rootTrace)
	return c
}

// runRefresh moves every domain to epoch+1 through
// blsapp.RefreshCoordinator, which stages the package in
// <params>.refresh-pending and commits to the parameters file (same group
// key, rotated share keys); running refresh again re-drives the package
// an interrupted run left staged.
func runRefresh(paramsPath string, file *deployfile.File, params audit.Params) error {
	tk, err := file.ThresholdKey()
	if err != nil {
		return err
	}
	if tk == nil {
		return errors.New("deployment file has no threshold key")
	}

	// Frames are signed with the developer seed the daemon exported;
	// ed25519 is deterministic, so a re-drive resends identical frames.
	seed, err := deployfile.ReadRefreshKey(paramsPath + ".refresh-key")
	if err != nil {
		return fmt.Errorf("%w\n(refresh frames must be signed by the developer key; run a current trustdomaind to export it)", err)
	}
	signer, err := framework.NewDeveloperFromSeed(seed)
	if err != nil {
		return err
	}

	inv := newDomainClient(params)
	defer inv.Close()
	coord := blsapp.RefreshCoordinator{Inv: inv, Signer: signer, Pending: paramsPath + ".refresh-pending",
		Commit: func(k *bls.ThresholdKey) error {
			file.Threshold = deployfile.ThresholdEntryFromKey(k)
			return file.Write(paramsPath)
		},
		Resumed: func(ref *bls.Refresh) {
			fmt.Printf("resuming interrupted refresh ceremony to epoch %d\n", ref.NewEpoch)
		},
	}
	if err := coord.Drive(tk.Epoch, tk); err != nil {
		return fmt.Errorf("%w\n(the ceremony is safe to re-run: dtclient refresh)", err)
	}
	fmt.Printf("shares refreshed: deployment now at epoch %d (was %d)\n", tk.Epoch+1, tk.Epoch)
	fmt.Println("group public key unchanged; share keys rotated; parameters file updated")
	return nil
}

// runWitnessAudit audits a monitor's log through the witness quorum: one
// pollination round plus one batched pairing check, no log replay.
func runWitnessAudit(params audit.Params, args []string) error {
	fs := flag.NewFlagSet("witnessaudit", flag.ExitOnError)
	monitorAddr := fs.String("monitor", "", "monitor address (the log source)")
	witnesses := fs.String("witnesses", "", "comma-separated witness addresses")
	quorum := fs.Int("quorum", 2, "required witness cosignatures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *monitorAddr == "" || *witnesses == "" {
		return errors.New("witnessaudit needs -monitor and -witnesses")
	}

	// The head this client saw directly from the monitor.
	mon := dialRPC(*monitorAddr)
	defer mon.Close()
	var info struct {
		Name   string `json:"name"`
		BLSKey []byte `json:"bls_key"`
	}
	if err := mon.CallCtx(rpcCtx(), "info", struct{}{}, &info); err != nil {
		return fmt.Errorf("monitor identity: %w", err)
	}
	srcPK := new(bls.PublicKey)
	if err := srcPK.SetBytes(info.BLSKey); err != nil {
		return fmt.Errorf("monitor BLS key: %w", err)
	}
	var head aolog.BLSSignedHead
	if err := mon.CallCtx(rpcCtx(), "headbls", struct{}{}, &head); err != nil {
		return fmt.Errorf("monitor head: %w", err)
	}

	// Pin the witness set (keys fetched over witness_info; a production
	// client pins them in configuration instead).
	ws := &audit.WitnessSet{Quorum: *quorum}
	for _, addr := range strings.Split(*witnesses, ",") {
		addr = strings.TrimSpace(addr)
		wc := dialRPC(addr)
		var wi gossip.WitnessInfo
		err := wc.CallCtx(rpcCtx(), gossip.KindWitnessInfo, struct{}{}, &wi)
		wc.Close()
		if err != nil {
			return fmt.Errorf("witness %s identity: %w", addr, err)
		}
		wpk := new(bls.PublicKey)
		if err := wpk.SetBytes(wi.PublicKey); err != nil {
			return fmt.Errorf("witness %s key: %w", addr, err)
		}
		ws.Witnesses = append(ws.Witnesses, audit.WitnessEndpoint{Name: wi.Name, Addr: addr, Key: wpk})
	}

	c := newAuditClient(params)
	defer c.Close()
	// SourcePK is the canonical identity: witnesses that configured a
	// different local label for this monitor still resolve the head.
	seen := []gossip.GossipHead{{Source: info.Name, SourcePK: info.BLSKey, Head: head}}
	res, err := c.AuditSourceWithWitnesses(ws, info.Name, srcPK, seen)
	if res != nil {
		for i := range res.Proofs {
			p := &res.Proofs[i]
			fmt.Printf("EQUIVOCATION: source %s signed two logs (sizes %d/%d); proof verifies offline\n",
				info.Name, p.A.Size, p.B.Size)
		}
	}
	if err != nil {
		return fmt.Errorf("witnessaudit: %w", err)
	}
	fmt.Printf("accepted head: size=%d cosigned by %d/%d witnesses (quorum %d)\n",
		res.Head.Cosigned.Head.Size, res.Head.Witnesses, len(ws.Witnesses), *quorum)
	fmt.Println("witnessaudit: OK — one pollination round, one batched pairing check")
	if len(res.Proofs) > 0 {
		return errFindings
	}
	return nil
}

func runAudit(params audit.Params) error {
	c := newAuditClient(params)
	defer c.Close()
	report, err := c.Audit()
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	for _, d := range report.Domains {
		st := d.Status.Resp.Status
		fmt.Printf("%-10s version=%d log=%d digest=%s...\n",
			d.Info.Name, st.Version, st.LogLen, st.CurrentDigest[:12])
		for _, r := range d.Records {
			fmt.Printf("             log: v%d %s...\n", r.Version, r.Digest[:12])
		}
	}
	if report.Consistent {
		fmt.Println("audit: CONSISTENT — all domains attest to the same code and history")
		return nil
	}
	fmt.Println("audit: INCONSISTENT")
	for _, f := range report.Findings {
		fmt.Printf("  finding: %s\n", f)
	}
	for i := range report.Proofs {
		p := &report.Proofs[i]
		status := "verifies"
		if err := audit.VerifyMisbehavior(&params, p); err != nil {
			status = "does NOT verify: " + err.Error()
		}
		fmt.Printf("  proof[%d]: kind=%s domain=%s %s\n", i, p.Kind, p.Domain, status)
	}
	return errFindings
}

// keyWithStaleReload reads the threshold key from file, runs sign with
// it, and on a stale-epoch answer re-reads the parameters file ONCE (a
// refresh coordinator rewrites it at every epoch commit) and retries.
func keyWithStaleReload[T any](paramsPath string, file *deployfile.File, sign func(tk *bls.ThresholdKey) (T, error)) (T, *bls.ThresholdKey, error) {
	var zero T
	tk, err := file.ThresholdKey()
	if err != nil {
		return zero, nil, err
	}
	if tk == nil {
		return zero, nil, errors.New("deployment file has no threshold key")
	}
	out, err := sign(tk)
	var stale *blsapp.StaleEpochError
	if err != nil && errors.As(err, &stale) {
		reread, rerr := deployfile.Read(paramsPath)
		if rerr != nil {
			return zero, nil, rerr
		}
		tk2, rerr := reread.ThresholdKey()
		if rerr != nil || tk2 == nil {
			return zero, nil, fmt.Errorf("re-reading threshold key: %v", rerr)
		}
		if tk2.Epoch == tk.Epoch {
			return zero, nil, fmt.Errorf("sign: %w\n(the deployment was refreshed; fetch the current parameters file or run: dtclient refresh)", err)
		}
		fmt.Printf("deployment refreshed to epoch %d; retrying with rotated key\n", tk2.Epoch)
		tk = tk2
		out, err = sign(tk)
	}
	if err != nil {
		return zero, nil, fmt.Errorf("sign: %w", err)
	}
	return out, tk, nil
}

func runSign(paramsPath string, file *deployfile.File, params audit.Params, args []string) error {
	fs := flag.NewFlagSet("sign", flag.ExitOnError)
	msg := fs.String("msg", "", "message to threshold-sign")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *msg == "" {
		return errors.New("sign needs -msg")
	}
	inv := newDomainClient(params)
	defer inv.Close()
	sig, tk, err := keyWithStaleReload(paramsPath, file, func(tk *bls.ThresholdKey) (*bls.Signature, error) {
		return blsapp.ThresholdSign(inv, tk, []byte(*msg))
	})
	if err != nil {
		return err
	}
	if !bls.Verify(&tk.GroupKey, []byte(*msg), sig) {
		return errors.New("combined signature failed verification")
	}
	sb := sig.Bytes()
	fmt.Printf("message:   %q\n", *msg)
	fmt.Printf("signature: %s\n", hex.EncodeToString(sb[:]))
	fmt.Printf("verified under group key (threshold %d-of-%d, epoch %d)\n", tk.T, tk.N, tk.Epoch)
	return nil
}

func runSignBatch(paramsPath string, file *deployfile.File, params audit.Params, msgs []string) error {
	if len(msgs) == 0 {
		return errors.New("signbatch needs at least one message argument")
	}
	batch := make([][]byte, len(msgs))
	for i, m := range msgs {
		batch[i] = []byte(m)
	}
	inv := newDomainClient(params)
	defer inv.Close()
	sigs, tk, err := keyWithStaleReload(paramsPath, file, func(tk *bls.ThresholdKey) ([]*bls.Signature, error) {
		return blsapp.ThresholdSignBatch(inv, tk, batch)
	})
	if err != nil {
		return err
	}
	pks := make([]*bls.PublicKey, len(sigs))
	for i := range pks {
		pks[i] = &tk.GroupKey
	}
	if !bls.VerifyBatch(pks, batch, sigs) {
		return errors.New("combined signature batch failed verification")
	}
	for i, sig := range sigs {
		sb := sig.Bytes()
		fmt.Printf("%q -> %s\n", msgs[i], hex.EncodeToString(sb[:]))
	}
	fmt.Printf("%d signatures verified in one batched pairing check (threshold %d-of-%d)\n",
		len(sigs), tk.T, tk.N)
	return nil
}

func runStatus(params audit.Params, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	name := fs.String("domain", "", "domain name (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := newAuditClient(params)
	defer c.Close()
	for _, d := range params.Domains {
		if *name != "" && d.Name != *name {
			continue
		}
		env, err := c.FetchStatus(d.Name)
		if err != nil {
			fmt.Printf("%-10s ERROR: %v\n", d.Name, err)
			continue
		}
		st := env.Resp.Status
		pending := "-"
		if st.Pending != nil {
			pending = fmt.Sprintf("v%d staged", st.Pending.Version)
		}
		fmt.Printf("%-10s version=%d log=%d counter=%d pending=%s digest=%s...\n",
			d.Name, st.Version, st.LogLen, st.Counter, pending, st.CurrentDigest[:12])
	}
	return nil
}

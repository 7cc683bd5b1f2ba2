package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/transport"
)

// The package contracts DESIGN.md states in prose, enforced on the
// source: who may import whom, that there is one way to connect and one
// signed head, and that every option has a caller.

const internalPrefix = "repro/internal/"

// allowedInternalImports lists, for the packages whose contract bounds
// them, every repro/internal package their non-test files may import.
var allowedInternalImports = map[string][]string{
	"obsv":      nil,
	"ff":        nil,
	"sandbox":   nil,
	"tee":       nil,
	"transport": {"obsv"},
	"store":     {"obsv"},
	"monitor":   {"aolog", "audit", "bls", "gossip", "obsv", "store"},
	"fault":     {"obsv"},
	"daemon":    {"obsv", "fault", "transport"},
	"serve":     {"aolog", "gossip", "obsv", "transport"},
	"aolog":     {"bls"},
}

// rawDialers are the transport entry points reserved to the transport
// package itself and to tests: everything else rides DialManaged.
var rawDialers = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialConn": true, "NewClient": true, "NewPushClient": true,
}

// rawDialerException is the one non-test file outside transport that
// may hold a raw transport.Client: a subscription is connection-scoped
// state, which a ManagedClient's silent redial would lose, so the
// subscriber must see its connection die and subscribe again itself.
const rawDialerException = "internal/serve/client.go"

// frameIO and netDialers are what internal/serve may not touch: the
// frame loop and the dial both belong to transport.
var (
	frameIO    = map[string]bool{"ReadFrame": true, "WriteFrame": true, "ReadFrameHeader": true, "WriteFrameHeader": true}
	netDialers = map[string]bool{"Dial": true, "DialTimeout": true}
)

// removedIdents must not come back under any spelling of a declaration
// or use. They are assembled from halves so this file does not itself
// trip a text search for them.
var removedIdents = map[string]bool{
	"Set" + "DialHook":            true,
	"Set" + "ListenerWrap":        true,
	"Dial" + "Context":            true,
	"Hed" + "ge":                  true,
	"MonitorHead" + "Hedged":      true,
	"Dial" + "Addr":               true,
	"Set" + "CeremonyDiagnostics": true,
	"Auto" + "Subscriber":         true,
	"Auto" + "Options":            true,
	"NewAuto" + "Subscriber":      true,
	"Set" + "ResumeFloors":        true,
	// The ed25519 tree head and what hung off it. Exact identifiers: the
	// BLS head types and Subscriber's verify hook are other names.
	"Signed" + "Head":        true,
	"Sign" + "Head":          true,
	"Check" + "Equivocation": true,
	"Decode" + "SignedHead":  true,
	"Tree" + "Head":          true,
	"Enable" + "BLSHeads":    true,
	// Knobs nobody set, and the second way to stall the disk.
	"Disable" + "Cache":   true,
	"Fsync" + "Stall":     true,
	"Kind" + "ServeStats": true,
	// The history reply's second signature, which nothing verified: the
	// quote already binds the history.
	"Att" + "Sig":                     true,
	"SignWith" + "AttestationKey":     true,
	"VerifyAttestation" + "Signature": true,
	// Epoch chasing that only tests called (a caller reloads its key on
	// a stale-epoch error), the second ceremony loop, and the batched
	// head audit nothing called.
	"Key" + "Ring":                true,
	"Key" + "Source":              true,
	"ThresholdSign" + "Auto":      true,
	"ThresholdSignBatch" + "Auto": true,
	"All" + "Invoker":             true,
	"Invoke" + "All":              true,
	"STH" + "Batch":               true,
	"Verify" + "MonitorHeads":     true,
	"Verify" + "HeadsBLS":         true,
	// obsv's second family type and its seven ways to bind an owned
	// instrument, now one Family and one Registry.Register; and the
	// watchdog's test-only profile gap, now its FlightLimiter.
	"Gauge" + "Vec2":         true,
	"RegisterGauge" + "Vec":  true,
	"New" + "GaugeVec":       true,
	"Register" + "Counter":   true,
	"Register" + "Gauge":     true,
	"Register" + "Histogram": true,
	"Set" + "ProfileGap":     true,
}

// oneHeadKey lists the packages between the log and the wire whose
// non-test files may not import crypto/ed25519: tree heads are signed
// with the monitor's one BLS key and nothing else.
var oneHeadKey = []string{"internal/aolog/", "internal/monitor/", "internal/serve/", "cmd/monitord/"}

// harnessOnly lists, by import path, the calls that build or tear down
// a daemon's planes. internal/daemon makes them once for every daemon;
// a main under cmd/ that made one itself would be a second copy of the
// wiring, in its own order.
var harnessOnly = map[string][]string{
	"repro/internal/fault": {"LoadSchedule", "Activate"},
	"repro/internal/obsv":  {"NewRegistry", "NewFlightRecorder", "NewWatchdogSet", "NewSLOEngine", "Endpoint"},
}

// daemonOnly lists the calls no non-test file under internal/ or cmd/
// makes outside internal/daemon: its Every is the one ticker loop and
// its Run the one signal wait. Periodic work takes its ticks from its
// caller, so a test drives it with explicit times.
var daemonOnly = map[string][]string{
	"os/signal": {"Notify"},
	"time":      {"NewTicker", "Tick"},
}

// walkSource parses every .go file under the repo root but bench/ and
// hands it to visit with its slash-separated path. bench/ is its own
// module, and the contracts skip it: it may dial raw, since that is what
// it measures. Dot-directories hold no source of ours.
func walkSource(t *testing.T, visit func(path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackageContracts(t *testing.T) {
	walkSource(t, func(path string, file *ast.File) { checkFile(t, path, file) })
}

func checkFile(t *testing.T, path string, file *ast.File) {
	isTest := strings.HasSuffix(path, "_test.go")
	pkg := "" // the internal package this file belongs to, if any (serve/loadtest is its own)
	if rest, ok := strings.CutPrefix(path, "internal/"); ok {
		pkg = filepath.ToSlash(filepath.Dir(rest))
	}

	inCmd := strings.HasPrefix(path, "cmd/") && !isTest
	outsideDaemon := !isTest && pkg != "daemon" && (pkg != "" || inCmd)
	transportName := ""                   // local name of the transport import, if any
	harnessCalls := map[string][]string{} // local import name -> harnessOnly and daemonOnly selectors
	for _, imp := range file.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		local := ipath[strings.LastIndex(ipath, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if sels, ok := harnessOnly[ipath]; ok && inCmd {
			harnessCalls[local] = sels
		}
		if sels, ok := daemonOnly[ipath]; ok && outsideDaemon {
			harnessCalls[local] = sels
		}
		if ipath == "crypto/ed25519" && !isTest && slices.ContainsFunc(oneHeadKey, func(dir string) bool { return strings.HasPrefix(path, dir) }) {
			t.Errorf("%s: imports crypto/ed25519; tree heads have one key, and it is BLS", path)
		}
		target, ok := strings.CutPrefix(ipath, internalPrefix)
		if !ok {
			continue
		}
		if target == "transport" {
			transportName = "transport"
			if imp.Name != nil {
				transportName = imp.Name.Name
			}
		}
		if isTest {
			continue
		}
		if target == "fault" && pkg != "" && pkg != "daemon" {
			t.Errorf("%s: imports %s; only the daemon harness, cmd/ and tests may — libraries take the injector's Dial/Listener as plain values", path, ipath)
		}
		if allowed, bounded := allowedInternalImports[pkg]; bounded && !slices.Contains(allowed, target) {
			t.Errorf("%s: package %s must not import %s (allowed: %v)", path, pkg, ipath, allowed)
		}
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if removedIdents[n.Name] {
				t.Errorf("%s: identifier %s was removed (a process global or a second way to connect) and must not come back", path, n.Name)
			}
		case *ast.SelectorExpr:
			x, ok := n.X.(*ast.Ident)
			if ok && !isTest && pkg != "transport" && transportName != "" &&
				x.Name == transportName && rawDialers[n.Sel.Name] && path != rawDialerException {
				t.Errorf("%s: uses transport.%s; non-test code outside internal/transport holds a transport.ManagedClient", path, n.Sel.Name)
			}
			if ok && !isTest && pkg == "serve" &&
				(x.Name == transportName && frameIO[n.Sel.Name] || x.Name == "net" && netDialers[n.Sel.Name]) {
				t.Errorf("%s: uses %s.%s; serve reads and writes no frame and dials nothing, it rides a transport.Client", path, x.Name, n.Sel.Name)
			}
			if ok && slices.Contains(harnessCalls[x.Name], n.Sel.Name) {
				t.Errorf("%s: uses %s.%s; a daemon's planes, its tickers and its signal wait belong to internal/daemon", path, x.Name, n.Sel.Name)
			}
			if inCmd && n.Sel.Name == "ListenAndServe" {
				t.Errorf("%s: calls ListenAndServe; internal/daemon owns a daemon's listeners (Harness.Serve, Harness.Observe)", path)
			}
		}
		return true
	})
}

// sourcePkg is one of our packages, type-checked with everything its
// non-test files use recorded.
type sourcePkg struct {
	dir   string // slash-separated, relative to the repo root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// program is every non-test package of the module and of bench/ (module
// repro/bench, whose import paths map onto directories the same way),
// type-checked from source. ff's !amd64 file is checked too, as a second
// view of ff built for arm64: it is the only build-constrained source.
type program struct {
	fset     *token.FileSet
	pkgs     []*sourcePkg
	implicit *types.Info // implicitCalls, checked against the same standard library
	loader   *loader     // imports for a fixture checked against the program
}

func (p *program) position(pos token.Pos) string {
	at := p.fset.Position(pos)
	return filepath.ToSlash(at.Filename) + ":" + strconv.Itoa(at.Line)
}

// loader imports our packages with full type information and the
// standard library's from GOROOT without function bodies, each once.
type loader struct {
	fset *token.FileSet
	ctxt build.Context
	std  map[string]*types.Package
	ours map[string]*sourcePkg
	prog *program
	errs []error
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, ".", 0) }

func (l *loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := strings.CutPrefix(path, "repro/"); ok {
		p, err := l.load(&l.ctxt, path, dir)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	bp, err := l.ctxt.Import(path, srcDir, 0)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.std[bp.ImportPath]; ok {
		return pkg, nil
	}
	files, err := l.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: true, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(bp.ImportPath, l.fset, files, nil)
	l.std[bp.ImportPath] = pkg
	return pkg, nil
}

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// load type-checks the package in dir under ctxt's build constraints.
// A package built for the host is cached under its import path; another
// view is checked afresh and imported by nothing.
func (l *loader) load(ctxt *build.Context, path, dir string) (*sourcePkg, error) {
	host := ctxt == &l.ctxt
	if p, ok := l.ours[path]; ok && host {
		return p, nil
	}
	bp, err := ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	if host {
		l.ours[path] = p
	}
	l.prog.pkgs = append(l.prog.pkgs, p)
	return p, nil
}

// check parses and type-checks the named files of dir as package path.
func (l *loader) check(path, dir string, names []string) (*sourcePkg, error) {
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	p := &sourcePkg{dir: filepath.ToSlash(dir), files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	p.types, _ = conf.Check(path, l.fset, files, p.info)
	return p, nil
}

var (
	loadOnce sync.Once
	loaded   *program
	loadErrs []error
)

// loadProgram type-checks the whole program once for every caller check.
func loadProgram(t *testing.T) *program {
	t.Helper()
	loadOnce.Do(func() {
		fset := token.NewFileSet()
		l := &loader{fset: fset, ctxt: build.Default, std: map[string]*types.Package{},
			ours: map[string]*sourcePkg{}, prog: &program{fset: fset}}
		l.prog.loader = l
		l.ctxt.CgoEnabled = false
		err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			_, err = l.load(&l.ctxt, "repro/"+filepath.ToSlash(path), path)
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		})
		if err == nil {
			arm := l.ctxt
			arm.GOARCH = "arm64"
			_, err = l.load(&arm, "repro/internal/ff", "internal/ff")
		}
		if err == nil {
			var implicit *ast.File
			implicit, err = parser.ParseFile(fset, "implicit.go", implicitCalls, 0)
			l.prog.implicit = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			if err == nil {
				_, err = (&types.Config{Importer: l}).Check("implicit", fset, []*ast.File{implicit}, l.prog.implicit)
			}
		}
		if err != nil {
			l.errs = append(l.errs, err)
		}
		loaded, loadErrs = l.prog, l.errs
	})
	for _, err := range loadErrs {
		t.Error(err)
	}
	if len(loadErrs) > 0 {
		t.FailNow()
	}
	return loaded
}

// funcKey names a declared function as the caller checks report it:
// pkg.Func or pkg.Type.Method, with pkg relative to internal/.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil { // error.Error
		return ""
	}
	key := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "repro/"), "internal/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		named, ok := typ.(*types.Named)
		if !ok {
			return ""
		}
		key += "." + named.Obj().Name()
	}
	return key + "." + fn.Name()
}

// implicitCalls declares, as values, the standard-library interfaces
// whose methods the standard library calls without the program naming
// them: fmt's verbs, errors.Is/As/Unwrap, net's error and address
// reports, and the encoders.
const implicitCalls = `package implicit

import (
	"encoding"
	"encoding/json"
	"fmt"
	"net"
)

var _ = []any{
	fmt.Stringer(nil), error(nil), net.Error(nil), net.Addr(nil),
	interface{ Unwrap() error }(nil), interface{ Unwrap() []error }(nil),
	encoding.TextMarshaler(nil), encoding.TextUnmarshaler(nil),
	encoding.BinaryMarshaler(nil), encoding.BinaryUnmarshaler(nil),
	json.Marshaler(nil), json.Unmarshaler(nil),
}
`

// exportException is a group of exported functions under internal/ that
// stay without a production caller, why, and when the row goes.
type exportException struct {
	funcs  []string
	reason string
	until  string
}

// exportExceptions can only shrink: a named function that gains a
// caller, or no longer exists, fails the test.
var exportExceptions = []exportException{
	{
		funcs: []string{"bls.AggregateSignatures", "bls.VerifyAggregate", "bls.VerifyAggregateSameMsg",
			"bls.SecretKey.ProvePossession", "bls.VerifyPossession"},
		reason: "the aggregation API: one pairing check for a quorum's cosignatures, with proofs of possession against rogue keys",
		until:  "the witnessed read (ROADMAP P) verifies cosigned heads through it, or decides it will not and deletes it",
	},
	{
		funcs: []string{"hwnext.New", "hwnext.HardwareFramework.RegisterBinary", "hwnext.HardwareFramework.Install",
			"hwnext.HardwareFramework.Invoke", "hwnext.HardwareFramework.AttestedStatus", "hwnext.HardwareFramework.History",
			"blsapp.DecodeSignRequestForNative", "blsapp.EncodeSignResponseForNative", "blsapp.EncodeStaleResponseForNative",
			"aolog.LeafDigest", "aolog.RootOfLeaves"},
		reason: "only the root bench_test.go ablations call them: Table 3's next-generation TEE row and the recompute-every-root baseline",
		until:  "those ablations move into bench/ or are dropped (ROADMAP G)",
	},
	{
		funcs:  []string{"fault.Schedule.Format"},
		reason: "prints a schedule as the file -fault-schedule reads; the parser's fuzz target round-trips it",
		until:  "the simulated host prints each failing seed's schedule with it (ROADMAP F), or that plan is dropped",
	},
	{
		funcs: []string{"transport.Dial", "transport.NewMemListener", "transport.MemListener.Dial",
			"transport.Server.ListenAndServe", "transport.Server.ActiveConns", "transport.ManagedClient.Stats"},
		reason: "test seams: other packages' tests serve over a raw or in-memory connection and read connection and retry counts",
		until:  "those tests share a test-support package, or production code calls them",
	},
	{
		funcs:  []string{"bls12381.Pair", "bls12381.G1ScalarBaseMult", "bls12381.HashToFr", "ff.Fp12.Equal", "obsv.Registry.Histogram"},
		reason: "TestKnownAnswerVectors, TestPairingMatchesAffineOracle and TestGoldenExposition call them, and those pinned tests stay as they are",
		until:  "those goldens are next regenerated on a trusted commit, with the tests moved off these entry points",
	},
}

// TestEveryExportHasACaller: every exported function or method declared
// in a non-test file under internal/ is used by a non-test file
// somewhere in the program (bench/, cmd/ and examples/ included, and
// ff's !amd64 kernels), not counting its own body, or is a named
// exception. A method also counts as called when its type satisfies an
// interface whose method the program calls, or a standard-library
// interface the program uses or the standard library calls implicitly.
// Code no production path reaches is surface no workload covers.
func TestEveryExportHasACaller(t *testing.T) {
	prog := loadProgram(t)

	declared := map[string]token.Pos{}
	used := map[string]bool{}        // funcKey -> used by a non-test file
	called := map[*types.Func]bool{} // interface methods the program calls
	var named []*types.Named         // non-generic types declared under internal/
	var ifaces []types.Type          // interface types the program names or passes
	seenIface := map[types.Type]bool{}
	var addIfaces func(types.Type)
	addIfaces = func(typ types.Type) {
		switch u := typ.(type) {
		case *types.Pointer:
			addIfaces(u.Elem())
		case *types.Slice:
			addIfaces(u.Elem())
		case *types.Array:
			addIfaces(u.Elem())
		case *types.Map:
			addIfaces(u.Key())
			addIfaces(u.Elem())
		case *types.Chan:
			addIfaces(u.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					addIfaces(tuple.At(i).Type())
				}
			}
		default:
			if iface, ok := typ.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seenIface[typ] {
				seenIface[typ] = true
				ifaces = append(ifaces, typ)
			}
		}
	}
	collectIfaces := func(info *types.Info) {
		for _, tv := range info.Types {
			addIfaces(tv.Type)
		}
		for _, objs := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
			for _, obj := range objs {
				if obj != nil {
					addIfaces(obj.Type())
				}
			}
		}
	}

	for _, p := range prog.pkgs {
		internal := strings.HasPrefix(p.dir, "internal/")
		for _, file := range p.files {
			for _, decl := range file.Decls {
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = funcKey(p.info.Defs[fd.Name].(*types.Func))
					if internal && fd.Name.IsExported() && self != "" {
						declared[self] = fd.Pos()
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := p.info.Uses[id].(*types.Func); ok {
						called[fn.Origin()] = true
						if key := funcKey(fn); key != self {
							used[key] = true
						}
					}
					return true
				})
			}
		}
		collectIfaces(p.info)
		if internal {
			scope := p.types.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
						named = append(named, n)
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("the scan found no exported function under internal/")
	}

	collectIfaces(prog.implicit)

	// A type's method is called through an interface it satisfies when
	// the method is the standard library's to call, or ours and called.
	byMethod := map[string][]*types.Named{}
	for _, n := range named {
		mset := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < mset.Len(); i++ {
			name := mset.At(i).Obj().Name()
			byMethod[name] = append(byMethod[name], n)
		}
	}
	for _, typ := range ifaces {
		iface := typ.Underlying().(*types.Interface)
		for _, n := range byMethod[iface.Method(0).Name()] {
			ptr := types.NewPointer(n)
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if ours := m.Pkg() != nil && strings.HasPrefix(m.Pkg().Path(), "repro/"); ours && !called[m] {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[funcKey(obj.(*types.Func))] = true
				}
			}
		}
	}

	excepted := map[string]bool{}
	for _, row := range exportExceptions {
		if row.reason == "" || row.until == "" {
			t.Errorf("exception %v needs a reason and a deletion condition", row.funcs)
		}
		for _, fn := range row.funcs {
			excepted[fn] = true
			if _, ok := declared[fn]; !ok {
				t.Errorf("exception %s names no exported function under internal/; drop it", fn)
			} else if used[fn] {
				t.Errorf("%s now has a caller; drop it from its exception (%q)", fn, row.reason)
			}
		}
	}
	if len(exportExceptions) > 10 {
		t.Errorf("%d export exceptions; at most 10", len(exportExceptions))
	}
	var dead []string
	for fn, pos := range declared {
		if !used[fn] && !excepted[fn] {
			dead = append(dead, prog.position(pos)+": "+fn)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller in a non-test file: delete it, unexport it, or move it into a _test.go file", d)
	}
}

// optionExceptions are the exported Options/Config fields that no
// non-test caller outside their package sets, each with why it stays.
// All are test seams. An entry the scan no longer needs fails the test,
// so the list can only shrink: it is the work list for the next knob PR.
var optionExceptions = map[string]string{
	"monitor.OpenOptions.SnapshotEvery": "restart tests snapshot mid-run, or switch snapshots off",
	"monitor.OpenOptions.NoSync":        "tests and benchmarks skip fsyncs",
}

// TestEveryOptionHasACaller: every exported field of an exported struct
// in internal/ whose name ends in Options or Config is set — by a keyed
// composite literal or by an assignment, through any expression — in a
// non-test file outside its package (bench/ counts), or is a named
// exception. A configuration no caller selects is unmeasured surface,
// not a feature.
func TestEveryOptionHasACaller(t *testing.T) {
	prog := loadProgram(t)
	fields := map[*types.Var]string{} // option field -> "pkg.Type.Field"
	set := map[string]bool{}
	for _, p := range prog.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields[f] = strings.TrimPrefix(p.dir, "internal/") + "." + name + "." + f.Name()
					set[fields[f]] = false
				}
			}
		}
	}
	for _, p := range prog.pkgs {
		mark := func(id *ast.Ident) {
			if f, ok := p.info.Uses[id].(*types.Var); ok && f.Pkg() != p.types {
				if field, ok := fields[f]; ok {
					set[field] = true
				}
			}
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						mark(key)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							mark(sel.Sel)
						}
					}
				}
				return true
			})
		}
	}

	if len(fields) == 0 {
		t.Fatal("the scan found no Options or Config struct under internal/")
	}
	for field, isSet := range set {
		reason, excepted := optionExceptions[field]
		switch {
		case !isSet && !excepted:
			t.Errorf("%s is set by no non-test caller outside its package: make it a constant, work it out, or delete it", field)
		case isSet && excepted:
			t.Errorf("%s now has a caller; drop its exception (%q)", field, reason)
		}
	}
	for field := range optionExceptions {
		if _, ok := set[field]; !ok {
			t.Errorf("exception %s names no scanned field; drop it", field)
		}
	}
}

// kindException is a handled request kind that stays without a
// production sender, why, and when the row goes.
type kindException struct {
	kind   string
	reason string
	until  string
}

// kindExceptions can only shrink: a kind that gains a sender, or that no
// server handles any more, fails the test, and so does a fifth row.
var kindExceptions = []kindException{
	{
		kind:   "_poison",
		reason: "a debug hook, registered only under -debug-hooks: the e2e smoke poisons monitord's serve tier and watches /readyz flip",
		until:  "the smoke poisons the tier through a -fault-schedule rule instead",
	},
	{
		kind:   "pull",
		reason: "a debug hook, registered only under -debug-hooks: the e2e smoke and chaos drills make auditord pull now instead of on its -interval tick",
		until:  "those drills drive the witness through -interval and wait for its frontier",
	},
	{
		kind:   "activate",
		reason: "the paper's update path: a domain activates a staged update, and no client drives that step yet",
		until:  "ROADMAP R decides: dtclient drives stage, notice and activate, or staging goes",
	},
	{
		kind:   "gossipreport",
		reason: "the slashing path: monitord records a portable equivocation proof, and no witness reports one yet",
		until:  "ROADMAP A-(1a) decides whether witnesses report convictions to a monitor's slashing ledger",
	},
}

// The transport functions that every registration and every request goes
// through, and the position of their kind parameter.
var kindRoots = map[string]kindParam{
	"transport.Server.register": {handles: true, index: 0},
	"transport.Client.CallCtx":  {handles: false, index: 1},
}

// kindParam marks a function whose kind parameter, at index, names a
// request kind that it registers a handler for (handles) or sends.
type kindParam struct {
	handles bool
	index   int
}

// kindSurface is what a program handles and sends, by request kind.
type kindSurface struct {
	handled, sent map[string][]token.Pos
	problems      []string // kind arguments the scan could not resolve
}

// scanKinds collects the request kinds that pkgs register handlers for
// and send. A function that passes its own kind parameter on to a
// registration or a send (Server.Handle, ManagedClient.Call,
// audit.Client.call, bench's conn.call) registers or sends at its call
// sites instead, found to a fixpoint from kindRoots; a call through a
// func value of Client.Call's type sends, and so does a BatchCall
// literal. Any other kind argument is a problem, so that no sender goes
// uncounted.
func scanKinds(prog *program, pkgs []*sourcePkg) kindSurface {
	type owner struct {
		fn    *types.Func
		index int
	}
	roles := map[*types.Func]kindParam{}
	kindParams := map[types.Object]owner{} // every parameter named kind of a declared function
	var callSig types.Type                 // transport.Client.Call's
	for _, p := range pkgs {
		for _, file := range p.files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				sig := fn.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					if v := sig.Params().At(i); v.Name() == "kind" {
						kindParams[v] = owner{fn, i}
					}
				}
				key := funcKey(fn)
				if root, ok := kindRoots[key]; ok {
					roles[fn] = root
				}
				if key == "transport.Client.Call" {
					callSig = sig
				}
			}
		}
	}

	for {
		s := kindSurface{handled: map[string][]token.Pos{}, sent: map[string][]token.Pos{}}
		grew := false
		record := func(info *types.Info, handles bool, arg ast.Expr) {
			if tv := info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.String {
				kinds := s.sent
				if handles {
					kinds = s.handled
				}
				kind := constant.StringVal(tv.Value)
				kinds[kind] = append(kinds[kind], arg.Pos())
				return
			}
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if o, ok := kindParams[info.Uses[id]]; ok {
					if _, known := roles[o.fn]; !known {
						roles[o.fn] = kindParam{handles: handles, index: o.index}
						grew = true
					}
					return
				}
			}
			s.problems = append(s.problems, prog.position(arg.Pos())+": kind argument is neither a constant nor a forwarded kind parameter")
		}
		for _, p := range pkgs {
			for _, file := range p.files {
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						var id *ast.Ident
						switch fun := ast.Unparen(n.Fun).(type) {
						case *ast.Ident:
							id = fun
						case *ast.SelectorExpr:
							id = fun.Sel
						default:
							return true
						}
						role, ok := kindParam{}, false
						switch obj := p.info.Uses[id].(type) {
						case *types.Func:
							role, ok = roles[obj.Origin()]
						case *types.Var:
							ok = callSig != nil && types.Identical(obj.Type(), callSig)
						}
						if ok && role.index < len(n.Args) {
							record(p.info, role.handles, n.Args[role.index])
						}
					case *ast.CompositeLit:
						named, ok := p.info.Types[n].Type.(*types.Named)
						if !ok || named.Obj().Name() != "BatchCall" || named.Obj().Pkg().Path() != internalPrefix+"transport" {
							return true
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Kind" {
									record(p.info, false, kv.Value)
								}
							} else if i == 0 {
								record(p.info, false, elt)
							}
						}
					}
					return true
				})
			}
		}
		if !grew {
			return s
		}
	}
}

// kindFindings checks pkgs' request kinds against each other, against
// kindExceptions and against the retry table idempotent.
func kindFindings(prog *program, pkgs []*sourcePkg, idempotent map[string]bool) []string {
	s := scanKinds(prog, pkgs)
	out := s.problems
	if len(s.handled) == 0 || len(s.sent) == 0 {
		out = append(out, fmt.Sprintf("the scan found %d handled and %d sent kinds", len(s.handled), len(s.sent)))
	}
	if len(kindExceptions) > 4 {
		out = append(out, fmt.Sprintf("%d kind exceptions; at most 4", len(kindExceptions)))
	}
	excepted := map[string]bool{}
	for _, row := range kindExceptions {
		excepted[row.kind] = true
		switch {
		case row.reason == "" || row.until == "":
			out = append(out, fmt.Sprintf("kind exception %q needs a reason and a deletion condition", row.kind))
		case len(s.handled[row.kind]) == 0:
			out = append(out, fmt.Sprintf("kind exception %q names a kind no server handles; drop it", row.kind))
		case len(s.sent[row.kind]) > 0:
			out = append(out, fmt.Sprintf("%s: kind %q now has a sender; drop its exception (%q)", prog.position(s.sent[row.kind][0]), row.kind, row.reason))
		}
	}
	for kind, at := range s.handled {
		if len(s.sent[kind]) == 0 && !excepted[kind] {
			out = append(out, fmt.Sprintf("%s: kind %q is handled but sent by no non-test code: give it a sender or delete the handler", prog.position(at[0]), kind))
		}
	}
	for kind, at := range s.sent {
		if len(s.handled[kind]) == 0 {
			out = append(out, fmt.Sprintf("%s: kind %q is sent but no server handles it", prog.position(at[0]), kind))
		}
	}
	for kind := range idempotent {
		if len(s.handled[kind]) == 0 {
			out = append(out, fmt.Sprintf("transport.DefaultIdempotent lists %q, which no server handles", kind))
		}
	}
	slices.Sort(out)
	return out
}

// TestEveryKindHasASender: every request kind a server registers in a
// non-test file is sent by a non-test file somewhere in the program
// (bench/, cmd/ and examples/ included), or is a named exception; every
// kind sent is handled; and so is every kind the retry table names. A
// handler is a closure under a string, which the export check cannot
// see: a kind nothing sends is surface an auditor reads and no workload
// covers.
func TestEveryKindHasASender(t *testing.T) {
	prog := loadProgram(t)
	for _, f := range kindFindings(prog, prog.pkgs, transport.DefaultIdempotent()) {
		t.Error(f)
	}
}

// TestKindScanCatchesFixtures: each direction of the kind check catches
// a committed mutant. testdata/kinds/unsent registers a handler that
// nothing sends; testdata/kinds/unhandled sends, through a wrapper, a
// kind that no server handles. Checked beside the program, each adds
// exactly its one finding to the program's own.
func TestKindScanCatchesFixtures(t *testing.T) {
	prog := loadProgram(t)
	idempotent := transport.DefaultIdempotent()
	base := kindFindings(prog, prog.pkgs, idempotent)
	for dir, want := range map[string]string{
		"testdata/kinds/unsent":    `kind "unsent-fixture" is handled but sent by no non-test code`,
		"testdata/kinds/unhandled": `kind "unhandled-fixture" is sent but no server handles it`,
	} {
		pkgs := append(slices.Clip(prog.pkgs), prog.fixture(t, dir))
		var added []string
		for _, f := range kindFindings(prog, pkgs, idempotent) {
			if !slices.Contains(base, f) {
				added = append(added, f)
			}
		}
		if len(added) != 1 || !strings.Contains(added[0], want) {
			t.Errorf("%s: added findings %q, want exactly one containing %q", dir, added, want)
		}
	}
}

// fixture type-checks the package in dir against the program without
// adding it to the program.
func (p *program) fixture(t *testing.T, dir string) *sourcePkg {
	t.Helper()
	l := p.loader
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(l.errs)
	pkg, err := l.check("repro/"+dir, dir, bp.GoFiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range l.errs[n:] {
		t.Error(err)
	}
	l.errs = l.errs[:n]
	return pkg
}

// kernelImports are what a non-test file in internal/ff may not import:
// a flag, an environment variable or a CPU-feature package with its own
// switches (x/sys/cpu reads GODEBUG) would be a second way to choose a
// field kernel.
var kernelImports = []string{"flag", "os", "syscall", "golang.org/x/sys/cpu"}

// TestOneKernelDispatch: assembly exists only in internal/ff, and ff
// chooses its field kernels one way, from CPUID at init. No non-test
// file there imports a package that reads flags or the environment, and
// the only build constraint is the one that gives every architecture
// but amd64 the Go kernels.
func TestOneKernelDispatch(t *testing.T) {
	const ffDir = "internal/ff"
	sawAsm := false
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext == ".s" || ext == ".S" {
			if filepath.ToSlash(filepath.Dir(path)) != ffDir {
				t.Errorf("%s: assembly outside %s; the field kernels are the repository's only assembly", path, ffDir)
			}
			sawAsm = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawAsm {
		t.Errorf("no assembly under %s: the scan is looking in the wrong place", ffDir)
	}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ffDir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			for _, imp := range file.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				if slices.Contains(kernelImports, ipath) {
					t.Errorf("%s: imports %s; ff chooses its kernels from CPUID alone", path, ipath)
				}
			}
			for _, group := range file.Comments {
				for _, c := range group.List {
					if (strings.HasPrefix(c.Text, "//go:build") || strings.HasPrefix(c.Text, "// +build")) && c.Text != "//go:build !amd64" {
						t.Errorf("%s: build constraint %q; the only one in ff is //go:build !amd64", path, c.Text)
					}
				}
			}
		}
	}
}

// ciFlagValues are the go test flags whose value is the next word.
var ciFlagValues = map[string]bool{"-run": true, "-bench": true, "-benchtime": true, "-count": true,
	"-timeout": true, "-cpu": true, "-C": true, "-o": true, "-outputdir": true, "-tags": true}

// TestCIPatternsMatch: every alternative of every -run and -bench
// pattern in the CI workflow matches at least one test, fuzz target or
// benchmark in the packages its go test line names. A pattern that
// matches nothing runs nothing and passes, so a renamed or deleted test
// would silently drop out of its CI step. -run xxx beside -bench is the
// idiom for "no tests" and is exempt.
func TestCIPatternsMatch(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	lines := 0
	for _, line := range strings.Split(text, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		lines++
		dir, flags, pkgs := ".", map[string]string{}, []string(nil)
		words := strings.Fields(cmd)
		for i := 0; i < len(words); i++ {
			w := strings.Trim(words[i], `'"`)
			if w == "|" || w == "}" || w == ";" {
				break
			}
			if !strings.HasPrefix(w, "-") {
				pkgs = append(pkgs, w)
				continue
			}
			name, value, inline := strings.Cut(w, "=")
			if !inline && ciFlagValues[name] && i+1 < len(words) {
				i++
				value = strings.Trim(words[i], `'"`)
			}
			flags[name] = value
			if name == "-C" {
				dir = value
			}
		}
		patterns := map[string][]string{} // pattern -> the function prefixes it selects
		if run, ok := flags["-run"]; ok && !(run == "xxx" && flags["-bench"] != "") {
			patterns[run] = []string{"Test", "Fuzz", "Example"}
		}
		if bench, ok := flags["-bench"]; ok {
			patterns[bench] = []string{"Benchmark"}
		}
		if len(patterns) == 0 {
			continue
		}
		names := ciTestNames(t, dir, pkgs)
		for pattern, prefixes := range patterns {
			for _, alt := range topLevelAlternatives(pattern) {
				re, err := regexp.Compile(strings.Split(alt, "/")[0])
				if err != nil {
					t.Errorf("ci.yml: go test %s: pattern %q: %v", strings.TrimSpace(cmd), alt, err)
					continue
				}
				if !slices.ContainsFunc(names, func(name string) bool {
					return re.MatchString(name) && slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) })
				}) {
					t.Errorf("ci.yml: go test %s: %q matches no %v function in %v", strings.TrimSpace(cmd), alt, prefixes, pkgs)
				}
			}
		}
	}
	if lines == 0 {
		t.Fatal("no go test line in ci.yml: the scan is reading the wrong file")
	}
}

// topLevelAlternatives splits a regexp at the | outside any group or
// class.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// ciTestNames lists the top-level functions of the _test.go files in the
// packages a go test line names, relative to dir ("./..." is every
// package under it).
func ciTestNames(t *testing.T, dir string, pkgs []string) []string {
	t.Helper()
	var dirs []string
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "/...")
		root = filepath.Join(dir, root)
		if !recursive {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				dirs = append(dirs, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	fset := token.NewFileSet()
	for _, d := range dirs {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					names = append(names, fd.Name.Name)
				}
			}
		}
	}
	return names
}

package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
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
	"shamir":    nil,
	"tee":       nil,
	"transport": {"obsv"},
	"store":     {"obsv"},
	"monitor":   {"aolog", "audit", "bls", "gossip", "obsv", "store"},
	"fault":     {"obsv"},
	"daemon":    {"obsv", "fault", "transport"},
	"serve":     {"aolog", "gossip", "obsv", "transport"},
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
	"os/signal":            {"Notify"},
	"repro/internal/fault": {"LoadSchedule", "Activate"},
	"repro/internal/obsv":  {"NewRegistry", "NewFlightRecorder", "NewWatchdogSet", "NewSLOEngine", "Endpoint"},
}

// walkSource parses every .go file under the repo root and hands it to
// visit with its slash-separated path. bench/ is its own module: the
// contracts skip it (it may dial raw: that is what it measures), the
// option scan reads it as one more caller. Dot-directories hold no
// source of ours.
func walkSource(t *testing.T, withBench bool, visit func(path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" && !withBench || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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
	walkSource(t, false, func(path string, file *ast.File) { checkFile(t, path, file) })
}

func checkFile(t *testing.T, path string, file *ast.File) {
	isTest := strings.HasSuffix(path, "_test.go")
	pkg := "" // the internal package this file belongs to, if any (serve/loadtest is its own)
	if rest, ok := strings.CutPrefix(path, "internal/"); ok {
		pkg = filepath.ToSlash(filepath.Dir(rest))
	}

	inCmd := strings.HasPrefix(path, "cmd/") && !isTest
	transportName := ""                   // local name of the transport import, if any
	harnessCalls := map[string][]string{} // local import name -> harnessOnly selectors
	for _, imp := range file.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		if sels, ok := harnessOnly[ipath]; ok && inCmd {
			local := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
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
				t.Errorf("%s: uses %s.%s; a daemon's planes are built and torn down by internal/daemon", path, x.Name, n.Sel.Name)
			}
			if inCmd && n.Sel.Name == "ListenAndServe" {
				t.Errorf("%s: calls ListenAndServe; internal/daemon owns a daemon's listeners (Harness.Serve, Harness.Observe)", path)
			}
		}
		return true
	})
}

// optionExceptions are the exported Options/Config fields that no
// non-test caller outside their package sets, each with why it stays.
// All are test seams. An entry the scan no longer needs fails the test,
// so the list can only shrink: it is the work list for the next knob PR.
var optionExceptions = map[string]string{
	"serve.Options.Cosign":              "the subscriber hammer's only way to push cosigned heads through a real tier",
	"store.Options.FlushThresholdBytes": "store tests force checkpoints and WAL rotations with a small threshold",
	"store.Options.SegmentMaxBytes":     "store tests force segment rolls with a small cap",
	"monitor.OpenOptions.SnapshotEvery": "restart tests snapshot mid-run, or switch snapshots off",
	"monitor.OpenOptions.NoSync":        "tests and benchmarks skip fsyncs",
	"gossip.Config.Sources":             "tests seed a witness's sources at construction; auditord adds them with AddSource",
	"gossip.Config.Witnesses":           "tests seed the cosigner set at construction; auditord adds them with AddWitness",
}

// TestEveryOptionHasACaller: every exported field of an exported struct
// in internal/ whose name ends in Options or Config is set — by a keyed
// composite literal, or by an assignment through a variable defined from
// one — in a non-test file outside its package (bench/ counts), or is a
// named exception. A configuration no caller selects is unmeasured
// surface, not a feature.
func TestEveryOptionHasACaller(t *testing.T) {
	type source struct {
		path string
		file *ast.File
	}
	var files []source
	fields := map[string]bool{} // "pkg.Type.Field" -> set by some caller
	mark := func(field string) {
		if _, scanned := fields[field]; scanned {
			fields[field] = true
		}
	}
	walkSource(t, true, func(path string, file *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		files = append(files, source{path, file})
		dir, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		if !ok {
			return
		}
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.IsExported() {
							fields[dir+"."+ts.Name.Name+"."+name.Name] = false
						}
					}
				}
			}
		}
	})

	for _, src := range files {
		// local import name -> internal package, for every package but the file's own
		imports := map[string]string{}
		own, _ := strings.CutPrefix(filepath.ToSlash(filepath.Dir(src.path)), "internal/")
		for _, imp := range src.file.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(ipath, internalPrefix); ok && pkg != own {
				local := pkg[strings.LastIndex(pkg, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = pkg
			}
		}
		// optionType resolves pkg.Type{...} and &pkg.Type{...} to
		// "pkg.Type" for an imported internal package.
		optionType := func(e ast.Expr) string {
			for {
				switch x := e.(type) {
				case *ast.UnaryExpr:
					e = x.X
					continue
				case *ast.CompositeLit:
					e = x.Type
					continue
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						return imports[id.Name] + "." + x.Sel.Name
					}
				}
				return ""
			}
		}
		vars := map[string]string{} // variable defined from a literal -> "pkg.Type"
		ast.Inspect(src.file, func(n ast.Node) bool {
			if def, ok := n.(*ast.AssignStmt); ok && def.Tok == token.DEFINE && len(def.Lhs) == len(def.Rhs) {
				for i := range def.Lhs {
					if id, ok := def.Lhs[i].(*ast.Ident); ok && optionType(def.Rhs[i]) != "" {
						vars[id.Name] = optionType(def.Rhs[i])
					}
				}
			}
			return true
		})
		ast.Inspect(src.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := optionType(n)
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							mark(typ + "." + key.Name)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok {
							mark(vars[id.Name] + "." + sel.Sel.Name)
						}
					}
				}
			}
			return true
		})
	}

	if len(fields) == 0 {
		t.Fatal("the scan found no Options or Config struct under internal/")
	}
	for field, set := range fields {
		reason, excepted := optionExceptions[field]
		switch {
		case !set && !excepted:
			t.Errorf("%s is set by no non-test caller outside its package: make it a constant, work it out, or delete it", field)
		case set && excepted:
			t.Errorf("%s now has a caller; drop its exception (%q)", field, reason)
		}
	}
	for field := range optionExceptions {
		if _, ok := fields[field]; !ok {
			t.Errorf("exception %s names no scanned field; drop it", field)
		}
	}
}

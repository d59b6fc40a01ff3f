package cloudalloc

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// docFiles are the documents whose names must resolve against the code.
// benchmark/README.md is not one: it belongs to the benchmark module.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// designMaxLines keeps DESIGN.md a description of the architecture as it
// is, not an append-only history.
const designMaxLines = 500

// codeIndex is what the docs may name, read from the module's Go source
// (the nested benchmark module included).
type codeIndex struct {
	decls    map[string]map[string]bool // package → top-level names
	types    map[string]bool            // "pkg.Type"
	members  map[string]map[string]bool // "pkg.Type" → methods and fields
	tests    map[string]bool            // Test, Fuzz and Benchmark functions
	literals map[string]bool            // non-test string literals and json tag names
	patterns []*regexp.Regexp           // non-test literal concatenations, operands as wildcards
	flags    map[string]map[string]bool // "allocd", "cloudalloc solve", … → flag names
	modes    map[string]bool            // experiments -run values: experiment.Artefacts names and the switch's cases
	benchmk  map[string]bool            // BENCHMARK.json metric and workload names
	goFiles  []string                   // every Go file, for section references in comments
}

// docPkgName is the name a doc uses for the package in dir: the facade is
// cloudalloc, internal packages go by their directory; others have none.
func docPkgName(dir string) string {
	if dir == "." {
		return "cloudalloc"
	}
	if strings.HasPrefix(dir, "internal/") && !strings.Contains(dir[len("internal/"):], "/") {
		return dir[len("internal/"):]
	}
	return ""
}

func buildCodeIndex(t *testing.T) *codeIndex {
	t.Helper()
	ix := &codeIndex{
		decls:    map[string]map[string]bool{},
		types:    map[string]bool{},
		members:  map[string]map[string]bool{},
		tests:    map[string]bool{},
		literals: map[string]bool{},
		flags:    map[string]map[string]bool{},
		modes:    map[string]bool{},
		benchmk:  map[string]bool{},
	}
	for _, a := range experiment.Artefacts {
		ix.modes[a.Name] = true
	}
	member := func(key, name string) {
		if ix.members[key] == nil {
			ix.members[key] = map[string]bool{}
		}
		ix.members[key][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.goFiles = append(ix.goFiles, path)
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFuncRe.MatchString(fn.Name.Name) {
					ix.tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ix.indexLiterals(f)
		if strings.HasPrefix(dir, "cmd/") {
			ix.indexFlags(f, strings.TrimPrefix(dir, "cmd/"))
		}
		pkg := docPkgName(dir)
		if pkg == "" {
			return nil
		}
		if ix.decls[pkg] == nil {
			ix.decls[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					member(pkg+"."+recvName(decl.Recv.List[0].Type), decl.Name.Name)
				} else {
					ix.decls[pkg][decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							ix.decls[pkg][id.Name] = true
						}
					case *ast.TypeSpec:
						key := pkg + "." + spec.Name.Name
						ix.decls[pkg][spec.Name.Name] = true
						ix.types[key] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									member(key, id.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, list := range [][]struct{ Name string }{spec.Workloads, spec.EndToEnd, spec.PerLayer} {
		for _, e := range list {
			ix.benchmk[e.Name] = true
		}
	}
	return ix
}

// indexLiterals records f's string literals, the names of its json struct
// tags, and every + chain that starts with a literal as a pattern whose
// other operands match any name.
func (ix *codeIndex) indexLiterals(f *ast.File) {
	var flatten func(x ast.Expr) []ast.Expr
	flatten = func(x ast.Expr) []ast.Expr {
		if b, ok := x.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			return append(flatten(b.X), flatten(b.Y)...)
		}
		return []ast.Expr{x}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				if s, err := strconv.Unquote(n.Value); err == nil {
					ix.literals[s] = true
				}
			}
		case *ast.Field:
			if n.Tag != nil {
				tag, _ := strconv.Unquote(n.Tag.Value)
				if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name != "" {
					ix.literals[name] = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			// Only a chain that starts with a word ("rpc_" + side + …)
			// names something; "." joining two variables matches anything.
			ops := flatten(n)
			if b, ok := ops[0].(*ast.BasicLit); !ok || b.Kind != token.STRING || !wordLitRe.MatchString(b.Value) {
				return true
			}
			var re strings.Builder
			for _, op := range ops {
				if b, ok := op.(*ast.BasicLit); ok && b.Kind == token.STRING {
					s, _ := strconv.Unquote(b.Value)
					re.WriteString(regexp.QuoteMeta(s))
				} else {
					re.WriteString(`[a-z0-9_]+`)
				}
			}
			ix.patterns = append(ix.patterns, regexp.MustCompile("^"+re.String()+"$"))
			return false
		}
		return true
	})
}

// indexFlags records the flags each flag.NewFlagSet in a command's file
// defines, keyed by the command ("allocd") or, for cloudalloc, by its
// subcommand ("cloudalloc solve"), and the -run modes cmd/experiments'
// switch names besides experiment.Artefacts.
func (ix *codeIndex) indexFlags(f *ast.File, cmd string) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		set := ""
		var names []string
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					return true
				}
				b, ok := n.Args[0].(*ast.BasicLit)
				if !ok || b.Kind != token.STRING {
					return true
				}
				s, _ := strconv.Unquote(b.Value)
				switch sel.Sel.Name {
				case "NewFlagSet":
					set = s
				case "String", "Int", "Int64", "Bool", "Float64", "Duration": // the flag kinds cmd/ uses
					names = append(names, s)
				}
			case *ast.SwitchStmt:
				if star, ok := n.Tag.(*ast.StarExpr); ok && cmd == "experiments" {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "which" {
						for _, c := range n.Body.List {
							for _, e := range c.(*ast.CaseClause).List {
								if b, ok := e.(*ast.BasicLit); ok {
									s, _ := strconv.Unquote(b.Value)
									ix.modes[s] = true
								}
							}
						}
					}
				}
			}
			return true
		})
		if set == "" {
			continue
		}
		key := cmd
		if cmd == "cloudalloc" {
			key = cmd + " " + set
		}
		if ix.flags[key] == nil {
			ix.flags[key] = map[string]bool{}
		}
		for _, name := range names {
			ix.flags[key][name] = true
		}
	}
}

// namedInCode reports whether a dotted or snake_case name is a metric or
// workload of BENCHMARK.json, or a string the non-test code spells out.
func (ix *codeIndex) namedInCode(name string) bool {
	if ix.benchmk[name] || ix.literals[name] {
		return true
	}
	for _, re := range ix.patterns {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// doc is one document split into prose and fenced shell lines.
type doc struct {
	raw   string
	prose string   // fenced blocks blanked out
	shell []string // fenced sh/bash lines, continuations joined
	lines int
}

func readDoc(t *testing.T, name string) doc {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	d := doc{raw: string(raw)}
	var prose strings.Builder
	fence, shellFence := false, false
	pending := ""
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		d.lines++
		if strings.HasPrefix(line, "```") {
			if !fence {
				lang := strings.TrimPrefix(line, "```")
				shellFence = lang == "sh" || lang == "bash" || lang == ""
			}
			fence = !fence
			prose.WriteString("\n")
			continue
		}
		if !fence {
			prose.WriteString(line + "\n")
			continue
		}
		prose.WriteString("\n")
		if !shellFence {
			continue
		}
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		}
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			line = ""
		}
		if strings.HasSuffix(strings.TrimSpace(line), `\`) {
			pending += strings.TrimSuffix(strings.TrimSpace(line), `\`) + " "
			continue
		}
		d.shell = append(d.shell, pending+line)
		pending = ""
	}
	d.prose = prose.String()
	return d
}

var (
	spanRe       = regexp.MustCompile("`([^`]+)`")
	testFuncRe   = regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)
	wordLitRe    = regexp.MustCompile(`^"[a-z]{2}`)
	testNameRe   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	qualifiedRe  = regexp.MustCompile(`(?:^|[^\w./*])((?:internal/)?([a-z][a-z0-9]*)\.(\(\*\w+\)|\w+)(?:\.(\w+))?)`)
	identPathRe  = regexp.MustCompile(`^internal/[a-z]+\.`)
	dottedRe     = regexp.MustCompile(`^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+$`)
	snakeRe      = regexp.MustCompile(`^[a-z][a-z0-9]*(?:_[a-z0-9]+)+$`)
	labelRe      = regexp.MustCompile(`\{[^{},]*\}`)
	altRe        = regexp.MustCompile(`\{([^{}]*,[^{}]*)\}`)
	fileExtRe    = regexp.MustCompile(`\.(go|md|json|mod|sum|sh|yml|yaml|txt|csv)$`)
	designRefRe  = regexp.MustCompile(`DESIGN(?:\.md)?,? §(\d+(?:\.\d+)?)`)
	bareRefRe    = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	expRefRe     = regexp.MustCompile(`EXPERIMENTS(?:\.md)? ([A-Z][A-Za-z0-9-]+)`)
	designHeadRe = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)
	expHeadRe    = regexp.MustCompile(`(?m)^## (\S+)`)
	commands     = map[string]bool{"cloudalloc": true, "experiments": true, "allocd": true, "allocctl": true}
)

// expandFamily turns a Prometheus family as the docs write it into the
// names it stands for: {a,b} alternatives expand, {label} suffixes drop.
func expandFamily(s string) []string {
	s = labelRe.ReplaceAllString(s, "")
	m := altRe.FindStringSubmatchIndex(s)
	if m == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[m[2]:m[3]], ",") {
		out = append(out, expandFamily(s[:m[0]]+strings.TrimSpace(alt)+s[m[1]:])...)
	}
	return out
}

// checkCommand checks a shell line (or a backticked command) that runs
// one of the commands: each -flag is defined in that command's flag set,
// and each experiments -run mode exists.
func (ix *codeIndex) checkCommand(line string, report func(string, ...any)) {
	toks := strings.Fields(line)
	for i := 0; i < len(toks); i++ {
		cmd := toks[i][strings.LastIndex(toks[i], "/")+1:]
		if toks[i] == "go" && i+2 < len(toks) && toks[i+1] == "run" && strings.HasPrefix(toks[i+2], "./cmd/") {
			i += 2
			cmd = strings.TrimSuffix(strings.TrimPrefix(toks[i], "./cmd/"), "/")
		}
		if !commands[cmd] {
			continue
		}
		sets := []string{cmd}
		if cmd == "cloudalloc" {
			if i+1 >= len(toks) {
				continue
			}
			i++
			sets = nil
			for _, sub := range strings.Split(toks[i], "|") {
				if ix.flags["cloudalloc "+sub] == nil {
					report("`cloudalloc %s`: no such subcommand", sub)
				}
				sets = append(sets, "cloudalloc "+sub)
			}
		}
		for i+1 < len(toks) {
			tok := toks[i+1]
			if tok == "|" || tok == "&" || tok == "&&" || tok == ";" || strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>") {
				break
			}
			i++
			if !strings.HasPrefix(tok, "-") {
				continue
			}
			if _, err := strconv.ParseFloat(tok, 64); err == nil {
				continue // a negative value, not a flag
			}
			for _, f := range strings.Split(tok, "/") {
				name, _, _ := strings.Cut(strings.TrimLeft(f, "-"), "=")
				if name == "" {
					continue
				}
				for _, set := range sets {
					if ix.flags[set] != nil && !ix.flags[set][name] {
						report("`%s -%s`: no such flag", set, name)
					}
				}
				if cmd == "experiments" && name == "run" && i+1 < len(toks) {
					mode := strings.Trim(toks[i+1], `'"`)
					if !ix.modes[mode] {
						report("`experiments -run %s`: no such mode", mode)
					}
				}
			}
		}
	}
}

// isRepoPath reports whether a span names a repository path: a top-level
// entry with a path below it (internal/core/shard.go, cmd/*) or a root
// file (go.mod). internal/pkg.Ident is an identifier, not a path.
func isRepoPath(span string) bool {
	if strings.ContainsAny(span, " ()") || identPathRe.MatchString(span) {
		return false
	}
	top, _, nested := strings.Cut(span, "/")
	if !nested {
		return fileExtRe.MatchString(span)
	}
	_, err := os.Stat(top)
	return top != "" && err == nil
}

// checkSpan checks one backticked span.
func (ix *codeIndex) checkSpan(span string, report func(string, ...any)) {
	span = strings.Join(strings.Fields(span), " ")
	first := strings.Fields(span + " x")[0]
	if base := first[strings.LastIndex(first, "/")+1:]; commands[base] || strings.HasPrefix(span, "go run ./cmd/") {
		ix.checkCommand(span, report)
	}
	if isRepoPath(span) {
		if m, _ := filepath.Glob(strings.TrimSuffix(span, "/")); len(m) == 0 {
			report("`%s`: no such path in the repository", span)
		}
		return
	}
	for _, part := range strings.Split(span, "|") {
		if names := expandFamily(part); snakeRe.MatchString(names[0]) {
			for _, name := range names {
				if !ix.namedInCode(name) {
					report("`%s`: not a BENCHMARK.json name nor a string in the code", name)
				}
			}
		}
	}
	for _, m := range qualifiedRe.FindAllStringSubmatch(span, -1) {
		ref, pkg, name, sub := m[1], m[2], m[3], m[4]
		if ix.decls[pkg] == nil {
			continue
		}
		typ := strings.TrimSuffix(strings.TrimPrefix(name, "(*"), ")")
		dotted := pkg + "." + name
		if sub != "" {
			dotted += "." + sub
		}
		switch {
		case ix.types[pkg+"."+typ] && sub != "":
			if !ix.members[pkg+"."+typ][sub] {
				report("`%s`: %s.%s has no method or field %s", ref, pkg, typ, sub)
			}
		case ix.decls[pkg][typ], ix.tests[typ]:
		case name[0] >= 'a' && name[0] <= 'z' && ix.namedInCode(dotted):
		default:
			report("`%s`: %s declares no %s", ref, pkg, typ)
		}
	}
	if dottedRe.MatchString(span) && !fileExtRe.MatchString(span) {
		if pkg, _, _ := strings.Cut(span, "."); ix.decls[pkg] == nil && !ix.namedInCode(span) {
			report("`%s`: not a BENCHMARK.json name nor a string in the code", span)
		}
	}
}

// TestDocsNamesExist: every name the docs give the code — a test, a
// declaration, a metric, a span or family name, a path, a command flag,
// a section — exists, so a rename or deletion that leaves a doc stale
// fails here.
func TestDocsNamesExist(t *testing.T) {
	ix := buildCodeIndex(t)
	docs := map[string]doc{}
	for _, name := range docFiles {
		docs[name] = readDoc(t, name)
	}
	designSecs := map[string]bool{}
	for _, m := range designHeadRe.FindAllStringSubmatch(docs["DESIGN.md"].prose, -1) {
		designSecs[m[1]] = true
	}
	expIDs := map[string]bool{}
	for _, m := range expHeadRe.FindAllStringSubmatch(docs["EXPERIMENTS.md"].prose, -1) {
		expIDs[m[1]] = true
	}
	// checkRefs resolves references to DESIGN.md sections and
	// EXPERIMENTS.md headings; inside DESIGN.md a bare § number refers to
	// DESIGN.md itself.
	checkRefs := func(text string, bare bool, report func(string, ...any)) {
		re := designRefRe
		if bare {
			re = bareRefRe
		}
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if !designSecs[m[1]] {
				report("DESIGN.md has no §%s", m[1])
			}
		}
		for _, m := range expRefRe.FindAllStringSubmatch(text, -1) {
			if !expIDs[m[1]] {
				report("EXPERIMENTS.md has no section %s", m[1])
			}
		}
	}
	for _, name := range docFiles {
		d := docs[name]
		report := func(format string, args ...any) { t.Errorf(name+": "+format, args...) }
		for _, tn := range testNameRe.FindAllString(d.raw, -1) {
			if !ix.tests[tn] {
				report("%s is no test, fuzz or benchmark function", tn)
			}
		}
		for _, m := range spanRe.FindAllStringSubmatch(d.prose, -1) {
			ix.checkSpan(m[1], report)
		}
		for _, line := range d.shell {
			ix.checkCommand(line, report)
		}
		checkRefs(d.raw, name == "DESIGN.md", report)
	}
	for _, path := range ix.goFiles {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkRefs(string(raw), false, func(format string, args ...any) { t.Errorf(path+": "+format, args...) })
	}
	if n := docs["DESIGN.md"].lines; n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, over %d: describe each mechanism once, leave history to CHANGES.md", n, designMaxLines)
	}
}

// TestDocsSettingsTable: DESIGN.md's Settings table has exactly one row
// for every settable value TestConfigFieldBudget counts, and no row for
// a field that does not exist. A row starting with `.Field` continues
// the struct of the row above; `X (N values)` covers a nested struct.
func TestDocsSettingsTable(t *testing.T) {
	leaves := map[string]bool{} // "pkg.Type.Field.Sub"
	var structs []string
	for _, c := range configCensus {
		typ := reflect.TypeOf(c.cfg)
		structs = append(structs, typ.String())
		for _, p := range settableValues(typ, typ.String()) {
			leaves[p] = true
		}
	}
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	start := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "#") && strings.HasSuffix(strings.TrimSpace(line), "Settings") {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatal("DESIGN.md has no Settings heading")
	}
	tokenRe := regexp.MustCompile("`([^`]+)`(?:\\s*\\((\\d+) values\\))?")
	covered := map[string]int{}
	current, rows := "", 0
	inTable := false
	for _, line := range lines[start+1:] {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		if rows++; rows <= 2 { // header and separator
			continue
		}
		for _, m := range tokenRe.FindAllStringSubmatch(cells[1], -1) {
			name := m[1]
			if strings.HasPrefix(name, ".") {
				if current == "" {
					t.Errorf("Settings row %q continues no struct", line)
					continue
				}
				name = current + name
			} else {
				current = ""
				for _, s := range structs {
					if (name == s || strings.HasPrefix(name, s+".")) && len(s) > len(current) {
						current = s
					}
				}
				if current == "" {
					t.Errorf("Settings row %q names no census struct", line)
					continue
				}
			}
			var hit []string
			for leaf := range leaves {
				if leaf == name || m[2] != "" && strings.HasPrefix(leaf, name+".") {
					hit = append(hit, leaf)
				}
			}
			switch {
			case len(hit) == 0:
				t.Errorf("Settings row names %s, which is no settable value", name)
			case m[2] != "" && strconv.Itoa(len(hit)) != m[2]:
				t.Errorf("Settings row says %s has %s values; the census counts %d", name, m[2], len(hit))
			}
			for _, leaf := range hit {
				covered[leaf]++
			}
		}
	}
	var missing []string
	for leaf := range leaves {
		switch n := covered[leaf]; {
		case n == 0:
			missing = append(missing, leaf)
		case n > 1:
			t.Errorf("Settings table covers %s in %d rows, want one", leaf, n)
		}
	}
	sort.Strings(missing)
	for _, leaf := range missing {
		t.Errorf("Settings table has no row for %s", leaf)
	}
}

// indexRowRe matches an EXPERIMENTS.md Index row: its ID and its command.
var indexRowRe = regexp.MustCompile(`(?m)^\| ([A-Z][A-Za-z0-9-]*) \|[^|]*\| ([^|]*) \|`)

// TestDocsArtefactsIndexed: every experiment.Artefacts entry has exactly
// one EXPERIMENTS.md Index row, under its ID, whose command is
// `experiments -run <name>`, and every such row names an entry.
func TestDocsArtefactsIndexed(t *testing.T) {
	d := readDoc(t, "EXPERIMENTS.md")
	_, index, ok := strings.Cut(d.prose, "\n## Index\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Index section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	rows := map[string][]string{} // -run name → IDs of the rows running it
	for _, m := range indexRowRe.FindAllStringSubmatch(index, -1) {
		if name, ok := strings.CutPrefix(m[2], "`experiments -run "); ok {
			name = strings.TrimSuffix(name, "`")
			rows[name] = append(rows[name], m[1])
		}
	}
	for _, a := range experiment.Artefacts {
		switch ids := rows[a.Name]; {
		case len(ids) != 1:
			t.Errorf("%s: %d Index rows run `experiments -run %s`, want 1", a.ID, len(ids), a.Name)
		case ids[0] != a.ID:
			t.Errorf("the Index row running `experiments -run %s` is %s, want %s", a.Name, ids[0], a.ID)
		}
		delete(rows, a.Name)
	}
	for name, ids := range rows {
		t.Errorf("Index rows %v run `experiments -run %s`, which is no experiment.Artefacts entry", ids, name)
	}
}

// TestDocsMetricFamilies: every metric family the non-test code names
// with a literal — the first argument of a Counter, Gauge or Histogram
// call, or of telemetry.Name — is listed in DESIGN.md §8's family table.
func TestDocsMetricFamilies(t *testing.T) {
	d := readDoc(t, "DESIGN.md")
	_, sec, ok := strings.Cut(d.prose, "\n## 8. ")
	if !ok {
		t.Fatal("DESIGN.md has no §8")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	listed := map[string]bool{}
	for _, m := range spanRe.FindAllStringSubmatch(sec, -1) {
		for _, name := range expandFamily(m[1]) {
			listed[name] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			switch name := sel.Sel.Name; {
			case name == "Counter", name == "Gauge", name == "Histogram":
			case name == "Name" && pkg != nil && pkg.Name == "telemetry":
			default:
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if family, _ := strconv.Unquote(lit.Value); !listed[family] {
					t.Errorf("%s: metric family %s is not in DESIGN.md §8's table", fset.Position(lit.Pos()), family)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

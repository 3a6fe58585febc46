package lint

import (
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Directive validates every `herlint:` control comment in the package,
// so a typo in a directive is a finding instead of a silently inert
// comment:
//
//   - `//herlint:ignore` must carry an explicit analyzer list —
//     `//herlint:ignore <analyzer>[,<analyzer>...] — reason` — whose
//     names are known analyzers (or the wildcard `*`), followed by a
//     written reason. A bare `//herlint:ignore` suppresses nothing
//     today; before this check it also reported nothing, which is the
//     worst of both.
//   - any other `herlint:<verb>` is unknown and reported.
var Directive = &Analyzer{
	Name: "directive",
	Doc:  "herlint: control comments must be well-formed: known verb, explicit analyzer list, written reason",
}

// runDirective reads All (which contains Directive itself), so the Run
// hook is bound in init to break the initialization cycle.
func init() { Directive.Run = runDirective }

var (
	directiveRe    = regexp.MustCompile(`^//\s*herlint:([\w-]+)(.*)$`)
	ignoreArgsRe   = regexp.MustCompile(`^[ \t]+([\w*,]+)([ \t]+\S.*)?$`)
	ignoreReasonRe = regexp.MustCompile(`^[ \t]+(—|–|--)([ \t]+\S|$)`)
)

func runDirective(p *Pass) {
	known := make(map[string]bool, len(All)+1)
	for _, a := range All {
		known[a.Name] = true
	}
	known["*"] = true

	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if verb, rest := m[1], m[2]; verb == "ignore" {
					checkIgnoreDirective(p, c.Pos(), rest, known)
				} else {
					p.Reportf(c.Pos(), "unknown herlint directive %q; known: ignore", verb)
				}
			}
		}
	}
}

// checkIgnoreDirective validates one herlint:ignore comment.
func checkIgnoreDirective(p *Pass, pos token.Pos, rest string, known map[string]bool) {
	m := ignoreArgsRe.FindStringSubmatch(rest)
	if m == nil {
		p.Reportf(pos, "bare herlint:ignore suppresses nothing; syntax: //herlint:ignore <analyzer>[,<analyzer>...] — reason")
		return
	}
	var unknown []string
	for _, name := range strings.Split(m[1], ",") {
		if name = strings.TrimSpace(name); name != "" && !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		p.Reportf(pos, "herlint:ignore names unknown analyzer(s) %s; run `herlint -list` for the roster", strings.Join(unknown, ", "))
	}
	if !ignoreReasonRe.MatchString(m[2]) {
		p.Reportf(pos, "herlint:ignore requires a dash-separated written reason after the analyzer list: //herlint:ignore %s — reason", m[1])
	}
}

package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"perfbase/internal/pbxml"
	"perfbase/internal/units"
	"perfbase/internal/value"
)

// Var is a resolved experiment variable: a declared input parameter or
// result value with its storage type, unit and content constraints.
type Var struct {
	Name        string
	Result      bool // result value rather than input parameter
	Once        bool // constant per run rather than per data set
	Type        value.Type
	Unit        units.Unit
	Synopsis    string
	Description string

	// DefaultText and ValidTexts carry the raw declaration strings;
	// Default and Valid the parsed forms (see finish).
	DefaultText string
	ValidTexts  []string
	Default     value.Value
	Valid       []value.Value
}

// finish parses DefaultText/ValidTexts into typed values.
func (v *Var) finish() error {
	if v.DefaultText != "" {
		d, err := value.Parse(v.Type, v.DefaultText)
		if err != nil {
			return fmt.Errorf("variable %s: default: %w", v.Name, err)
		}
		v.Default = d
	} else {
		v.Default = value.Null(v.Type)
	}
	v.Valid = v.Valid[:0]
	for _, s := range v.ValidTexts {
		val, err := value.Parse(v.Type, s)
		if err != nil {
			return fmt.Errorf("variable %s: valid value: %w", v.Name, err)
		}
		v.Valid = append(v.Valid, val)
	}
	return nil
}

// Accepts reports whether content val satisfies the variable's
// valid-content restriction (paper Fig. 5: "all other content will be
// rejected"). Variables without a valid list accept everything.
func (v *Var) Accepts(val value.Value) bool {
	if len(v.Valid) == 0 || val.IsNull() {
		return true
	}
	for _, ok := range v.Valid {
		if value.Equal(val, ok) {
			return true
		}
	}
	return false
}

// resolveVars converts the XML variable declarations into resolved Vars.
func resolveVars(def *pbxml.Experiment) ([]Var, error) {
	var vars []Var
	add := func(list []pbxml.Variable, isResult bool) error {
		for i := range list {
			xv := &list[i]
			typ, err := xv.Type()
			if err != nil {
				return err
			}
			u, err := xv.Unit.Unit()
			if err != nil {
				return err
			}
			if strings.EqualFold(xv.Name, "run_id") {
				return fmt.Errorf("core: variable name run_id is reserved")
			}
			v := Var{
				Name: xv.Name, Result: isResult, Once: xv.Once(),
				Type: typ, Unit: u, Synopsis: xv.Synopsis, Description: xv.Description,
				DefaultText: xv.Default, ValidTexts: xv.Valid,
			}
			if err := v.finish(); err != nil {
				return err
			}
			vars = append(vars, v)
		}
		return nil
	}
	if err := add(def.Parameters, false); err != nil {
		return nil, err
	}
	if err := add(def.Results, true); err != nil {
		return nil, err
	}
	return vars, nil
}

// Experiment is an open experiment.
type Experiment struct {
	store       *Store
	name        string
	def         *pbxml.Experiment
	vars        []Var
	once, multi []Var // vars by occurrence, in declaration order
}

func newExperiment(s *Store, name string, def *pbxml.Experiment, vars []Var) *Experiment {
	e := &Experiment{store: s, name: name, def: def}
	e.setVars(vars)
	return e
}

// setVars makes vars the experiment's variables.
func (e *Experiment) setVars(vars []Var) {
	byOcc := make([]Var, 0, len(vars))
	n := 0 // once variables
	for _, once := range [...]bool{true, false} {
		for _, v := range vars {
			if v.Once == once {
				byOcc = append(byOcc, v)
			}
		}
		if once {
			n = len(byOcc)
		}
	}
	e.vars, e.once, e.multi = vars, byOcc[:n:n], byOcc[n:]
}

// Name returns the experiment name.
func (e *Experiment) Name() string { return e.name }

// Store returns the store the experiment lives in.
func (e *Experiment) Store() *Store { return e.store }

// Def returns the (possibly reconstructed) experiment definition.
func (e *Experiment) Def() *pbxml.Experiment { return e.def }

// Vars returns all resolved variables.
func (e *Experiment) Vars() []Var { return e.vars }

// Var looks up a variable by name (case-insensitive).
func (e *Experiment) Var(name string) (*Var, bool) {
	for i := range e.vars {
		if strings.EqualFold(e.vars[i].Name, name) {
			return &e.vars[i], true
		}
	}
	return nil, false
}

// OnceVars returns the constant-per-run variables in declaration order.
// The slice is the experiment's own: callers must not modify it.
func (e *Experiment) OnceVars() []Var { return e.once }

// MultiVars returns the per-data-set variables in declaration order.
// The slice is the experiment's own: callers must not modify it.
func (e *Experiment) MultiVars() []Var { return e.multi }

// OnceTable is the table holding one row per run with all
// constant-per-run variables.
func (e *Experiment) OnceTable() string { return e.name + "_once" }

// DataTable is the per-run table holding the data sets of run id
// (paper §4.2).
func (e *Experiment) DataTable(id int64) string {
	return fmt.Sprintf("%s_run_%d", e.name, id)
}

// onceTableDDL is the CREATE TABLE of the experiment's once table.
func (e *Experiment) onceTableDDL() string {
	cols := []string{"run_id integer"}
	for _, v := range e.OnceVars() {
		cols = append(cols, v.Name+" "+v.Type.String())
	}
	return "CREATE TABLE " + e.OnceTable() + " (" + strings.Join(cols, ", ") + ")"
}

// ------------------------------------------------------ access model

// AccessClass orders the perfbase user classes (paper §4.2).
type AccessClass int

// Access classes, weakest first.
const (
	AccessQuery AccessClass = iota + 1
	AccessInput
	AccessAdmin
)

// String returns the class name used in the meta tables.
func (c AccessClass) String() string {
	switch c {
	case AccessQuery:
		return "query"
	case AccessInput:
		return "input"
	case AccessAdmin:
		return "admin"
	}
	return "none"
}

// ParseAccessClass resolves a class name.
func ParseAccessClass(s string) (AccessClass, error) {
	switch strings.ToLower(s) {
	case "query":
		return AccessQuery, nil
	case "input":
		return AccessInput, nil
	case "admin":
		return AccessAdmin, nil
	}
	return 0, fmt.Errorf("core: unknown access class %q", s)
}

// Can reports whether user may act at the given class level. A class
// implies all weaker classes (admin ⊇ input ⊇ query). An experiment
// with no registered users at all is open to everybody (single-user
// operation without a shared server).
func (e *Experiment) Can(user string, class AccessClass) (bool, error) {
	res, err := execArgs(e.store.q, "SELECT usr, class FROM "+tblAccess+" WHERE exp = ?",
		value.NewString(e.name))
	if err != nil {
		return false, fmt.Errorf("core: access check: %w", err)
	}
	if len(res.Rows) == 0 {
		return true, nil
	}
	for _, r := range res.Rows {
		if r[0].Str() != user {
			continue
		}
		have, err := ParseAccessClass(r[1].Str())
		if err != nil {
			return false, err
		}
		if have >= class {
			return true, nil
		}
	}
	return false, nil
}

// Grant gives user the access class, replacing any previous grant.
func (e *Experiment) Grant(user string, class AccessClass) error {
	defer e.store.forget(e.name)
	if err := e.Revoke(user); err != nil {
		return err
	}
	_, err := execArgs(e.store.q, "INSERT INTO "+tblAccess+" (exp, usr, class) VALUES (?, ?, ?)",
		value.NewString(e.name), value.NewString(user), value.NewString(class.String()))
	if err != nil {
		return fmt.Errorf("core: grant: %w", err)
	}
	return nil
}

// Revoke removes all access grants of user.
func (e *Experiment) Revoke(user string) error {
	defer e.store.forget(e.name)
	_, err := execArgs(e.store.q, "DELETE FROM "+tblAccess+" WHERE exp = ? AND usr = ?",
		value.NewString(e.name), value.NewString(user))
	if err != nil {
		return fmt.Errorf("core: revoke: %w", err)
	}
	return nil
}

// --------------------------------------------------- schema evolution

// Update evolves the experiment to a new definition (paper §3.1:
// "values and parameters can be added, modified or removed"). Added
// variables appear as NULL in existing runs (or their default at query
// time); removed variables lose their content; a changed data type is
// applied by dropping and re-adding the column, which also clears
// existing content. Occurrence changes are rejected. Every change —
// the columns, the variables' meta rows, the experiment's row — commits
// in one transaction, so no OpenExperiment sees half of it. Only e
// itself takes the new definition: an experiment opened before keeps
// the old.
func (e *Experiment) Update(def *pbxml.Experiment) error {
	if err := def.Validate(); err != nil {
		return err
	}
	if def.Name != e.name {
		return fmt.Errorf("core: update: definition is for %q, experiment is %q", def.Name, e.name)
	}
	newVars, err := resolveVars(def)
	if err != nil {
		return err
	}
	defer e.store.forget(e.name)
	oldByName := map[string]*Var{}
	for i := range e.vars {
		oldByName[strings.ToLower(e.vars[i].Name)] = &e.vars[i]
	}
	newByName := map[string]*Var{}
	for i := range newVars {
		newByName[strings.ToLower(newVars[i].Name)] = &newVars[i]
	}
	var tx txn
	name := value.NewString(e.name)
	var runs []RunInfo // read for the first ALTER of the data tables
	alterAll := func(once bool, clause string) error {
		if once {
			tx.add("ALTER TABLE " + e.OnceTable() + " " + clause)
			return nil
		}
		if runs == nil {
			var err error
			if runs, err = e.Runs(); err != nil {
				return err
			}
		}
		for _, r := range runs {
			tx.add("ALTER TABLE " + e.DataTable(r.ID) + " " + clause)
		}
		return nil
	}

	// Removed and retyped variables.
	for _, old := range e.vars {
		nv, keep := newByName[strings.ToLower(old.Name)]
		if keep {
			if nv.Once != old.Once {
				return fmt.Errorf("core: update: cannot change occurrence of %q", old.Name)
			}
			if nv.Result != old.Result {
				return fmt.Errorf("core: update: cannot move %q between parameters and results", old.Name)
			}
		}
		if keep && nv.Type == old.Type {
			continue
		}
		// Drop the column everywhere it exists.
		if err := alterAll(old.Once, "DROP COLUMN "+old.Name); err != nil {
			return err
		}
		if !keep {
			tx.add("DELETE FROM "+tblVariables+" WHERE exp = ? AND name = ?", name, value.NewString(old.Name))
		}
	}
	// Added and retyped variables, and changed meta rows.
	for _, nv := range newVars {
		old, existed := oldByName[strings.ToLower(nv.Name)]
		if existed && old.Type == nv.Type && sameMeta(old, &nv) {
			continue
		}
		if !existed || old.Type != nv.Type {
			if err := alterAll(nv.Once, "ADD COLUMN "+nv.Name+" "+nv.Type.String()); err != nil {
				return err
			}
		}
		if existed {
			tx.add("DELETE FROM "+tblVariables+" WHERE exp = ? AND name = ?", name, value.NewString(nv.Name))
		}
		tx.addVarMeta(e.name, nv)
	}

	// Refresh experiment meta.
	tx.add(`UPDATE `+tblExperiments+
		` SET synopsis = ?, description = ?, project = ?, performer = ?, organization = ?
		 WHERE name = ?`,
		value.NewString(def.Info.Synopsis), value.NewString(def.Info.Description),
		value.NewString(def.Info.Project), value.NewString(def.Info.PerformedBy.Name),
		value.NewString(def.Info.PerformedBy.Organization), name)
	if err := tx.run(e.store.q); err != nil {
		return fmt.Errorf("core: update: %w", err)
	}
	e.def = def
	e.setVars(newVars)
	return nil
}

// sameMeta reports whether a and b, of one type, have the same meta row.
func sameMeta(a, b *Var) bool {
	return a.Name == b.Name && a.Synopsis == b.Synopsis && a.Description == b.Description &&
		a.Unit.String() == b.Unit.String() && a.DefaultText == b.DefaultText &&
		slices.Equal(a.ValidTexts, b.ValidTexts)
}

// VarNamesSorted returns all variable names, sorted, for display.
func (e *Experiment) VarNamesSorted() []string {
	names := make([]string, len(e.vars))
	for i, v := range e.vars {
		names[i] = v.Name
	}
	sort.Strings(names)
	return names
}

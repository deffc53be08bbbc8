package minic

import "strings"

// Type is a MiniC type: int, bool, void, or a pointer to another type.
type Type struct {
	// Base is one of "int", "bool", "void".
	Base string
	// Ptr is the number of pointer levels on top of Base.
	Ptr int
}

// IntType, BoolType, and VoidType are the scalar types.
var (
	IntType  = Type{Base: "int"}
	BoolType = Type{Base: "bool"}
	VoidType = Type{Base: "void"}
)

// StructType returns the named struct type (no pointer levels).
func StructType(name string) Type { return Type{Base: "struct " + name} }

// IsStruct reports whether the base type is a struct; StructName returns
// its name.
func (t Type) IsStruct() bool { return len(t.Base) > 7 && t.Base[:7] == "struct " }

// StructName returns the struct's name ("" for non-structs).
func (t Type) StructName() string {
	if !t.IsStruct() {
		return ""
	}
	return t.Base[7:]
}

// Pointer returns a type with one more pointer level.
func (t Type) Pointer() Type { return Type{Base: t.Base, Ptr: t.Ptr + 1} }

// Elem returns the pointee type; it panics on non-pointers.
func (t Type) Elem() Type {
	if t.Ptr == 0 {
		panic("minic: Elem of non-pointer type " + t.String())
	}
	return Type{Base: t.Base, Ptr: t.Ptr - 1}
}

// IsPointer reports whether t has at least one pointer level.
func (t Type) IsPointer() bool { return t.Ptr > 0 }

// IsVoid reports whether t is void.
func (t Type) IsVoid() bool { return t.Base == "void" && t.Ptr == 0 }

func (t Type) String() string {
	return t.Base + strings.Repeat("*", t.Ptr)
}

// Program is a parsed MiniC translation unit set. Files model the paper's
// "compilation units"; the Infer-like and CSA-like baselines confine their
// analysis to a single unit, while Pinpoint analyzes the whole program.
type Program struct {
	Files []*File
}

// Funcs returns all functions of all files in declaration order.
func (p *Program) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, f := range p.Files {
		out = append(out, f.Funcs...)
	}
	return out
}

// File is a single translation unit.
type File struct {
	Name    string
	Globals []*VarDecl
	Funcs   []*FuncDecl
	Structs []*StructDecl
}

// StructDecl declares a struct type with named fields.
type StructDecl struct {
	Pos    Pos
	Name   string
	Fields []Param
}

// VarDecl declares a (global or local) variable, optionally initialized.
type VarDecl struct {
	Pos  Pos
	Name string
	Type Type
	Init Expr // may be nil
}

// Param is a function parameter.
type Param struct {
	Name string
	Type Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Ret    Type
	Params []Param
	Body   *BlockStmt
	// Unit is the file (compilation unit) index the function belongs to;
	// filled by the parser driver.
	Unit int
}

// Stmt is a MiniC statement.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// Expr is a MiniC expression.
type Expr interface {
	exprNode()
	ExprPos() Pos
}

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Pos   Pos
	Stmts []Stmt
}

// DeclStmt is a local variable declaration statement.
type DeclStmt struct {
	Decl *VarDecl
}

// AssignStmt assigns Value to the lvalue Target. Target is either an *Ident
// or a *UnaryExpr with Op "*" (a k-level dereference chain).
type AssignStmt struct {
	Pos    Pos
	Target Expr
	Value  Expr
}

// IfStmt is a two-way branch; Else may be nil.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt
}

// WhileStmt is a loop; lowering unrolls it once (§4.2).
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body Stmt
}

// ReturnStmt returns from the enclosing function; Value may be nil.
type ReturnStmt struct {
	Pos   Pos
	Value Expr
}

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	Pos Pos
	X   Expr
}

func (*BlockStmt) stmtNode()  {}
func (*DeclStmt) stmtNode()   {}
func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}

func (s *BlockStmt) StmtPos() Pos  { return s.Pos }
func (s *DeclStmt) StmtPos() Pos   { return s.Decl.Pos }
func (s *AssignStmt) StmtPos() Pos { return s.Pos }
func (s *IfStmt) StmtPos() Pos     { return s.Pos }
func (s *WhileStmt) StmtPos() Pos  { return s.Pos }
func (s *ReturnStmt) StmtPos() Pos { return s.Pos }
func (s *ExprStmt) StmtPos() Pos   { return s.Pos }

// Ident references a named variable.
type Ident struct {
	Pos  Pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	Val int64
}

// BoolLit is true or false.
type BoolLit struct {
	Pos Pos
	Val bool
}

// NullLit is the null pointer constant.
type NullLit struct {
	Pos Pos
}

// UnaryExpr applies Op ("-", "!", "*", "&") to X.
type UnaryExpr struct {
	Pos Pos
	Op  string
	X   Expr
}

// BinaryExpr applies Op to X and Y. Ops: + - * / % && || == != < <= > >=.
type BinaryExpr struct {
	Pos  Pos
	Op   string
	X, Y Expr
}

// ArrowExpr accesses a field through a struct pointer: X->Field.
type ArrowExpr struct {
	Pos   Pos
	X     Expr
	Field string
}

// CallExpr calls a named function. Intrinsics (malloc, free, and the taint
// source/sink models) use the same node; the lowering pass recognizes them
// by name.
type CallExpr struct {
	Pos  Pos
	Fun  string
	Args []Expr
}

func (*ArrowExpr) exprNode()  {}
func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*NullLit) exprNode()    {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*CallExpr) exprNode()   {}

func (e *ArrowExpr) ExprPos() Pos  { return e.Pos }
func (e *Ident) ExprPos() Pos      { return e.Pos }
func (e *IntLit) ExprPos() Pos     { return e.Pos }
func (e *BoolLit) ExprPos() Pos    { return e.Pos }
func (e *NullLit) ExprPos() Pos    { return e.Pos }
func (e *UnaryExpr) ExprPos() Pos  { return e.Pos }
func (e *BinaryExpr) ExprPos() Pos { return e.Pos }
func (e *CallExpr) ExprPos() Pos   { return e.Pos }

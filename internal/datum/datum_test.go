package datum

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "BIGINT",
		KindFloat:  "DOUBLE",
		KindString: "STRING",
		KindBool:   "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromSQL(t *testing.T) {
	cases := map[string]Kind{
		"INT": KindInt, "bigint": KindInt, "SMALLINT": KindInt,
		"DOUBLE": KindFloat, "float": KindFloat, "DECIMAL": KindFloat,
		"STRING": KindString, "varchar": KindString, "DATE": KindString,
		"BOOLEAN": KindBool, " bool ": KindBool,
	}
	for name, want := range cases {
		got, err := KindFromSQL(name)
		if err != nil {
			t.Fatalf("KindFromSQL(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("KindFromSQL(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := KindFromSQL("BLOB"); err == nil {
		t.Error("KindFromSQL(BLOB) should fail")
	}
}

func TestDatumString(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null, "NULL"},
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Float(3.5), "3.5"},
		{String_("hi"), "hi"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestSQLLiteralQuotesStrings(t *testing.T) {
	if got := String_("it's").SQLLiteral(); got != "'it''s'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Int(5).SQLLiteral(); got != "5" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Errorf("Int(7).AsFloat() = %v,%v", f, ok)
	}
	if f, ok := String_("2.5").AsFloat(); !ok || f != 2.5 {
		t.Errorf("String(2.5).AsFloat() = %v,%v", f, ok)
	}
	if _, ok := String_("xyz").AsFloat(); ok {
		t.Error("String(xyz).AsFloat() should fail")
	}
	if i, ok := Float(9.9).AsInt(); !ok || i != 9 {
		t.Errorf("Float(9.9).AsInt() = %v,%v", i, ok)
	}
	if i, ok := Bool(true).AsInt(); !ok || i != 1 {
		t.Errorf("Bool(true).AsInt() = %v,%v", i, ok)
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("Null.AsFloat() should fail")
	}
}

func TestCompareOrdering(t *testing.T) {
	// NULL sorts first, then numerics by value, cross int/float works.
	asc := []Datum{Null, Int(-5), Float(-1.5), Int(0), Float(0.5), Int(1), Float(1e9)}
	for i := 0; i < len(asc); i++ {
		for j := 0; j < len(asc); j++ {
			got := Compare(asc[i], asc[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", asc[i], asc[j], got, want)
			}
		}
	}
	if Compare(String_("a"), String_("b")) != -1 {
		t.Error("string compare broken")
	}
	if Compare(Bool(false), Bool(true)) != -1 {
		t.Error("bool compare broken")
	}
	if Compare(Int(1), Int(1)) != 0 || Compare(Int(1), Float(1)) != 0 {
		t.Error("equal numeric compare broken")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	if Int(3).Hash() != Float(3).Hash() {
		t.Error("Int(3) and Float(3) compare equal but hash differently")
	}
	if Int(3).Hash() == Int(4).Hash() {
		t.Error("suspicious hash collision Int(3)/Int(4)")
	}
	if Float(0).Hash() != Float(math.Copysign(0, -1)).Hash() {
		t.Error("+0.0 and -0.0 hash differently")
	}
}

func TestCoerce(t *testing.T) {
	d, err := Coerce(String_("12"), KindInt)
	if err != nil || d.I != 12 {
		t.Errorf("Coerce string->int: %v, %v", d, err)
	}
	d, err = Coerce(Int(3), KindFloat)
	if err != nil || d.F != 3 {
		t.Errorf("Coerce int->float: %v, %v", d, err)
	}
	d, err = Coerce(Float(2.5), KindString)
	if err != nil || d.S != "2.5" {
		t.Errorf("Coerce float->string: %v, %v", d, err)
	}
	d, err = Coerce(Null, KindInt)
	if err != nil || !d.IsNull() {
		t.Errorf("Coerce null: %v, %v", d, err)
	}
	if _, err = Coerce(String_("zz"), KindInt); err == nil {
		t.Error("Coerce bad string->int should fail")
	}
}

func TestParse(t *testing.T) {
	d, err := Parse("15", KindInt)
	if err != nil || d.I != 15 {
		t.Fatalf("Parse int: %v %v", d, err)
	}
	d, err = Parse("", KindInt)
	if err != nil || !d.IsNull() {
		t.Fatalf("Parse empty should be NULL: %v %v", d, err)
	}
	d, err = Parse(`\N`, KindString)
	if err != nil || !d.IsNull() {
		t.Fatalf(`Parse \N should be NULL: %v %v`, d, err)
	}
	if _, err = Parse("true-ish", KindBool); err == nil {
		t.Error("Parse bad bool should fail")
	}
}

func TestRowStringAndEqual(t *testing.T) {
	r := Row{Int(1), String_("x"), Null}
	if r.String() != "1\tx\tNULL" {
		t.Errorf("Row.String() = %q", r.String())
	}
	if !r.Equal(r.Clone()) {
		t.Error("row should equal its clone")
	}
	if r.Equal(Row{Int(1), String_("x")}) {
		t.Error("different arity rows should not be equal")
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{Int(1), String_("a")}
	b := Row{Int(1), String_("b")}
	if CompareRows(a, b) != -1 || CompareRows(b, a) != 1 || CompareRows(a, a) != 0 {
		t.Error("CompareRows ordering broken")
	}
	if CompareRows(Row{Int(1)}, Row{Int(1), Int(2)}) != -1 {
		t.Error("prefix row should order first")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{{"id", KindInt}, {"Name", KindString}}
	if s.ColumnIndex("name") != 1 || s.ColumnIndex("ID") != 0 || s.ColumnIndex("zz") != -1 {
		t.Error("ColumnIndex case-insensitive lookup broken")
	}
	if got := s.String(); got != "id BIGINT, Name STRING" {
		t.Errorf("Schema.String() = %q", got)
	}
	if !reflect.DeepEqual(s.Names(), []string{"id", "Name"}) {
		t.Error("Names broken")
	}
	if !reflect.DeepEqual(s.Kinds(), []Kind{KindInt, KindString}) {
		t.Error("Kinds broken")
	}
}

func TestSchemaValidateAndCoerce(t *testing.T) {
	s := Schema{{"id", KindInt}, {"v", KindFloat}}
	if err := s.Validate(Row{Int(1), Float(2)}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Validate(Row{Int(1), Null}); err != nil {
		t.Errorf("null should validate: %v", err)
	}
	if err := s.Validate(Row{Int(1)}); err == nil {
		t.Error("short row should fail validation")
	}
	if err := s.Validate(Row{Float(1), Float(2)}); err == nil {
		t.Error("kind mismatch should fail validation")
	}
	r := Row{String_("5"), Int(2)}
	if err := s.CoerceRow(r); err != nil {
		t.Fatalf("CoerceRow: %v", err)
	}
	if r[0].K != KindInt || r[0].I != 5 || r[1].K != KindFloat || r[1].F != 2 {
		t.Errorf("CoerceRow result: %v", r)
	}
}

func randomDatum(r *rand.Rand) Datum {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Float(r.NormFloat64() * 1e6)
	case 3:
		n := r.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return String_(string(b))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

// RandomRow builds an arbitrary row; exported to quick via Generate.
type quickRow Row

func (quickRow) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(8)
	row := make(Row, n)
	for i := range row {
		row[i] = randomDatum(r)
	}
	return reflect.ValueOf(quickRow(row))
}

func TestPropertyDatumEncodingRoundtrip(t *testing.T) {
	f := func(qr quickRow) bool {
		row := Row(qr)
		enc := EncodeRow(row)
		if len(enc) != RowEncodedSize(row) {
			return false
		}
		dec, n, err := DecodeRow(enc)
		if err != nil || n != len(enc) {
			return false
		}
		return dec.Equal(row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySortableKeyMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b := randomDatum(r), randomDatum(r)
		// SortableKey guarantees order only within comparable kinds.
		comparable := a.K == b.K ||
			((a.K == KindInt || a.K == KindFloat) && (b.K == KindInt || b.K == KindFloat)) ||
			a.K == KindNull || b.K == KindNull
		if !comparable {
			continue
		}
		ka := SortableKey(nil, a)
		kb := SortableKey(nil, b)
		want := Compare(a, b)
		got := compareBytes(ka, kb)
		if (want < 0 && got >= 0) || (want > 0 && got <= 0) || (want == 0 && got != 0) {
			t.Fatalf("SortableKey order mismatch: %v vs %v: Compare=%d bytes=%d", a, b, want, got)
		}
	}
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func TestSortableKeySortsNumericSlice(t *testing.T) {
	vals := []Datum{Float(-100.5), Int(-3), Float(-0.5), Int(0), Float(2.25), Int(7), Float(1e12)}
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = SortableKey(nil, v)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return compareBytes(keys[i], keys[j]) < 0 }) {
		t.Error("sortable keys of ascending numerics are not ascending")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeDatum(nil); err == nil {
		t.Error("decode empty should fail")
	}
	if _, _, err := DecodeDatum([]byte{0x99}); err == nil {
		t.Error("decode unknown tag should fail")
	}
	if _, _, err := DecodeDatum([]byte{0x02, 1, 2}); err == nil {
		t.Error("short float should fail")
	}
	if _, _, err := DecodeDatum([]byte{0x03, 10, 'a'}); err == nil {
		t.Error("short string should fail")
	}
	if _, _, err := DecodeRow([]byte{}); err == nil {
		t.Error("decode empty row should fail")
	}
	// An arity no buffer of this length could hold is refused before a
	// row of that capacity is made (2^47 datums would not return).
	if _, _, err := DecodeRow([]byte{0xf4, 0xca, 0xfb, 0x8b, 0xfd, 0x55}); err == nil {
		t.Error("row arity beyond the buffer should fail")
	}
}

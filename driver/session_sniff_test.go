package driver

import "testing"

// TestSQLMutatesSession: a SET anywhere in a script marks the
// connection for reset, past comments and in any case; a SET inside a
// string literal, a comment or a back-quoted name, or after UPDATE …,
// does not.
func TestSQLMutatesSession(t *testing.T) {
	for sql, want := range map[string]bool{
		`SET a = 1`:                          true,
		"-- note\nSET a = 1":                 true,
		`/* note */ SET a = 1`:               true,
		`set a = 1`:                          true,
		`SELECT 1; SET a = 1`:                true,
		`SET`:                                true,
		`SELECT ';SET a = 1' FROM t`:         false,
		`SELECT 1 -- ;SET a = 1`:             false,
		"SELECT `;SET` FROM t":               false,
		`UPDATE t SET a = 1`:                 false,
		`INSERT INTO t VALUES ('x;SET a=1')`: false,
		``:                                   false,
	} {
		if got := sqlMutatesSession(sql); got != want {
			t.Errorf("sqlMutatesSession(%q) = %v, want %v", sql, got, want)
		}
	}
}

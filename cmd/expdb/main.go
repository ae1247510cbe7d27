// Command expdb is an interactive REPL over the expiration-time database.
//
// Usage:
//
//	expdb                 # empty database
//	expdb -demo           # pre-loaded with the paper's Figure 1 example
//	expdb -f script.sql   # execute a script, then exit (or continue with -i)
//
// Statements end with ';'. Try:
//
//	CREATE TABLE pol (uid INT, deg INT);
//	INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
//	CREATE MATERIALIZED VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg;
//	EXPLAIN SELECT uid FROM pol EXCEPT SELECT uid FROM el;
//	ADVANCE TO 10;
//	SELECT * FROM hist;
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"expdb"
)

const demoScript = `
	CREATE TABLE pol (uid INT, deg INT);
	CREATE TABLE el  (uid INT, deg INT);
	INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
	INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
	INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
	INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
	INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
	INSERT INTO el VALUES (4, 90) EXPIRES AT 2;
`

func main() {
	demo := flag.Bool("demo", false, "preload the paper's Figure 1 example database")
	file := flag.String("f", "", "execute a SQL script file before reading input")
	interactive := flag.Bool("i", false, "stay interactive after -f")
	flag.Parse()

	db := expdb.OpenWithNotify(os.Stdout)
	if *demo {
		if _, err := db.ExecScript(demoScript); err != nil {
			fmt.Fprintln(os.Stderr, "expdb: demo load:", err)
			os.Exit(1)
		}
		fmt.Println("loaded Figure 1 example database (tables pol, el); time is 0")
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "expdb:", err)
			os.Exit(1)
		}
		if err := runScript(db, string(data)); err != nil {
			fmt.Fprintln(os.Stderr, "expdb:", err)
			os.Exit(1)
		}
		if !*interactive {
			return
		}
	}
	repl(db)
}

// runScript executes a script statement by statement so each result is
// printed.
func runScript(db *expdb.DB, script string) error {
	for _, stmt := range splitStatements(script) {
		res, err := db.Exec(stmt)
		if err != nil {
			return err
		}
		printResult(db, res)
	}
	return nil
}

func repl(db *expdb.DB) {
	fmt.Println("expdb — expiration-time database. Statements end with ';'. \\q quits, \\h helps.")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Printf("expdb:%s> ", db.Now())
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case "\\q", "\\quit", "exit", "quit":
			return
		case "\\h", "\\help":
			printHelp()
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if strings.Contains(line, ";") {
			script := pending.String()
			pending.Reset()
			if err := runScript(db, script); err != nil {
				fmt.Println("error:", err)
			}
		}
		prompt()
	}
}

// splitStatements splits on top-level semicolons (quotes respected).
func splitStatements(script string) []string {
	var stmts []string
	var cur strings.Builder
	inString := false
	for i := 0; i < len(script); i++ {
		c := script[i]
		if c == '\'' {
			inString = !inString
		}
		if c == ';' && !inString {
			if s := strings.TrimSpace(cur.String()); s != "" {
				stmts = append(stmts, s)
			}
			cur.Reset()
			continue
		}
		cur.WriteByte(c)
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		stmts = append(stmts, s)
	}
	return stmts
}

func printResult(db *expdb.DB, res *expdb.Result) {
	// EXPLAIN ANALYZE carries both the annotated plan (Msg) and the
	// executed relation; show the plan first, never swallow it.
	if res.Msg != "" {
		fmt.Println(res.Msg)
	}
	if rows, ok := res.Ordered(); ok {
		fmt.Println("texp | (ordered)")
		for _, row := range rows {
			fmt.Printf("%4s | %s\n", row.Texp, row.Tuple)
		}
		fmt.Printf("(%d row(s) at time %s)\n", len(rows), res.At)
		return
	}
	if res.Rel != nil {
		fmt.Print(res.Rel.Render(res.At))
		fmt.Printf("(%d row(s) at time %s)\n", res.Rel.CountAt(res.At), res.At)
	}
}

func printHelp() {
	fmt.Print(`statements:
  CREATE TABLE t (col INT|FLOAT|STRING|BOOL, ...);
  INSERT INTO t VALUES (...)[, (...)] [EXPIRES AT n | EXPIRES IN n | EXPIRES NEVER];
  DELETE FROM t [WHERE cond];
  SELECT cols|*|aggs FROM t [JOIN u ON a = b] [WHERE cond] [GROUP BY cols]
         [UNION|EXCEPT|INTERSECT SELECT ...] [ORDER BY col [DESC], ...] [LIMIT n];
  CREATE [MATERIALIZED] VIEW v [WITH (patching, mode=interval, recovery=backward)] AS SELECT ...;
         (no WITH: EXCEPT / GROUP BY roots keep their future; mode=texp opts out)
  REFRESH VIEW v;  EXPLAIN [ANALYZE] SELECT ...;
  CREATE TRIGGER name ON t ON EXPIRE DO NOTIFY 'msg';
  SET POLICY naive|neutral|exact;
  ADVANCE TO n;  SHOW TABLES|VIEWS|TIME|STATS|METRICS|TRACES;
  SHOW EVENTS [LIMIT n];
`)
}

from benchmarks.ledger.run import main

main()

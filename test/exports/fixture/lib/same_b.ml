let shared = 2
